// Fixture: smart pointers, deleted functions, std::construct_at and comments
// must not trip raw-new.
#include <memory>
#include <vector>

struct Node {
  int value = 0;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  Node() = default;
};

std::unique_ptr<Node> owned() { return std::make_unique<Node>(); }
std::vector<int> pooled(int n) {
  // a new vector each call; "delete" appears only in this comment
  return std::vector<int>(static_cast<unsigned>(n));
}
Node* built(Node* storage) { return std::construct_at(storage); }
