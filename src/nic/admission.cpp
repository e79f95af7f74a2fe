#include "nic/admission.hpp"

namespace pmx {

std::string to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kTailDrop:
      return "tail-drop";
    case ShedPolicy::kDropNewest:
      return "drop-newest";
    case ShedPolicy::kDropOldest:
      return "drop-oldest";
    case ShedPolicy::kDeadline:
      return "deadline";
    case ShedPolicy::kBackpressure:
      return "backpressure";
  }
  return "unknown";
}

}  // namespace pmx
