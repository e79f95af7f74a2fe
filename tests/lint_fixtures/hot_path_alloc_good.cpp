// Good: the hot kernel only touches pre-reserved storage and plain
// arithmetic; the vectors it grows are reserve()d in the constructor, so
// steady-state pushes never reallocate, and the node-based map is filled
// once at construction and only looked up in the kernel. The cold helper
// may build strings and allocate freely -- it carries no pmx-hot
// annotation.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

class Drainer {
 public:
  explicit Drainer(std::size_t expected) {
    log_.reserve(expected);
    slots_.reserve(expected);
    for (std::uint64_t id = 0; id < expected; ++id) {
      weight_.try_emplace(id, id + 1);
    }
  }

  // pmx-hot
  std::uint64_t drain(std::uint64_t id) {
    log_.push_back(id);
    slots_.emplace_back(id);
    const auto it = weight_.find(id);
    total_ += it != weight_.end() ? it->second : id;
    return total_;
  }

  std::string report() const {
    return "drained " + std::to_string(log_.size());
  }

 private:
  std::vector<std::uint64_t> log_;
  std::vector<std::uint64_t> slots_;
  std::map<std::uint64_t, std::uint64_t> weight_;
};
