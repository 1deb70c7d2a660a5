#include "isomorphism/dp_scratch.hpp"

namespace ppsi::iso::detail {

DpScratch& DpScratch::local() {
  static thread_local DpScratch scratch;
  return scratch;
}

}  // namespace ppsi::iso::detail
