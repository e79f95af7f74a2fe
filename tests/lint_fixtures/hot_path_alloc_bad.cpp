// Bad: a `// pmx-hot` kernel that allocates on every call. Heap traffic in
// the per-event path dominates simulator throughput; each of the six
// allocating lines inside drain() must trip hot-path-alloc: raw new, a
// std::function, string building, un-reserved vector growth, a try_emplace
// into an un-reserved map, and a try_emplace into a hash map whose
// reserve() sizes only its buckets (each insertion still allocates a node).
// The cold() function below repeats two of them with no annotation and must
// not be flagged.
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

struct Entry {
  std::uint64_t id = 0;
};

class Drainer {
 public:
  Drainer() { index_.reserve(64); }

  // pmx-hot
  std::uint64_t drain(std::uint64_t id) {
    Entry* e = new Entry{id};
    std::function<void()> cb = [e] { (void)e; };
    std::string label = std::to_string(id);
    log_.push_back(id);
    seen_.try_emplace(id, 1);
    index_.try_emplace(id);
    cb();
    delete e;
    return id + label.size();
  }

  std::uint64_t cold(std::uint64_t id) {
    log_.push_back(id);
    index_.try_emplace(id);
    return id;
  }

 private:
  std::vector<std::uint64_t> log_;
  std::map<std::uint64_t, std::uint64_t> seen_;
  std::unordered_map<std::uint64_t, Entry> index_;
};
