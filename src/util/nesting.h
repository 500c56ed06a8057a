// The nesting-depth limit of the recursive-descent parsers (formulas and
// SQL). Each nested construct — parentheses, a negation, a quantifier
// body, a derived table — costs the parser a few native stack frames,
// so input nested past the limit is rejected with InvalidArgument
// instead of overflowing the stack.

#ifndef OPCQA_UTIL_NESTING_H_
#define OPCQA_UTIL_NESTING_H_

#include <cstddef>
#include <string>

#include "util/status.h"

namespace opcqa {

inline constexpr size_t kMaxNestingDepth = 256;

/// Enters one nesting level of a parser's `*depth` for its lifetime.
class NestingGuard {
 public:
  explicit NestingGuard(size_t* depth) : depth_(depth) { ++*depth_; }
  ~NestingGuard() { --*depth_; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;

  /// InvalidArgument naming the limit once this level is past it.
  Status status() const {
    if (*depth_ <= kMaxNestingDepth) return Status::Ok();
    return Status::InvalidArgument("input nested deeper than the limit of " +
                                   std::to_string(kMaxNestingDepth) +
                                   " levels");
  }

 private:
  size_t* depth_;
};

}  // namespace opcqa

#endif  // OPCQA_UTIL_NESTING_H_
