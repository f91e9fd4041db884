#include "sim/engine.h"

#include <cstdlib>
#include <string>

namespace qcdoc::sim {

void Engine::throw_past(Cycle t, Cycle now) {
  throw std::invalid_argument(
      "Engine::schedule_at: cannot schedule into the past (t=" +
      std::to_string(t) + " < now=" + std::to_string(now) + ")");
}

int threads_from_env() {
  const char* env = std::getenv("QCDOC_SIM_THREADS");
  if (!env || !*env) return 1;
  const long v = std::strtol(env, nullptr, 10);
  if (v <= 1) return 1;
  return v > 256 ? 256 : static_cast<int>(v);
}

}  // namespace qcdoc::sim
