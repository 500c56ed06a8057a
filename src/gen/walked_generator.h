// A generator that behaves exactly like the generator it derives from but
// does not declare local(), so EnumerateRepairs walks every interleaving
// of its chain instead of factoring the root by conflict component
// (repair/localization.h). It keeps history_independent() and the cache
// identity, so the memo and the repair-space cache treat it like the
// original. Tests and benches that count inner memo entries, inner hits
// or walked states, or that time the walk, use it to keep measuring the
// walk; differential tests use it as the reference the factored root
// must equal.

#ifndef OPCQA_GEN_WALKED_GENERATOR_H_
#define OPCQA_GEN_WALKED_GENERATOR_H_

#include "repair/chain_generator.h"

namespace opcqa {
namespace gen {

template <typename Generator>
class Walked : public Generator {
 public:
  using Generator::Generator;
  Walked() = default;
  bool local() const override { return false; }
};

}  // namespace gen
}  // namespace opcqa

#endif  // OPCQA_GEN_WALKED_GENERATOR_H_
