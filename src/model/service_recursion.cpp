#include "model/service_recursion.hpp"

namespace mcs::model {

RecursionResult stage_recursion(std::span<const Stage> stages,
                                WaitModel wait_model) {
  MCS_EXPECTS(!stages.empty());
  SuffixState state;
  double s = 0.0;
  for (std::size_t idx = stages.size(); idx-- > 0;)
    s = recursion_step(stages[idx], wait_model, state);
  return {s, state.stable};
}

}  // namespace mcs::model
