// Fixture: raw new/delete expressions, placement new included, trip raw-new.
#include <new>

struct Node {
  int value = 0;
};

Node* leak_prone() { return new Node(); }
void manual_free(Node* n) { delete n; }
int* array_alloc(int n) { return new int[static_cast<unsigned>(n)]; }
void array_free(int* p) { delete[] p; }
Node* placed(void* storage) { return new (storage) Node(); }
