#ifdef OPCQA_FAILPOINTS

#include "util/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace opcqa {

namespace {

/// SplitMix64 step — the same mixer util/random.h seeds xoshiro with. A
/// full Rng per site would work too; failpoints only need a stream of
/// independent draws, and one word of state keeps Site trivially
/// resettable.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

FailpointRegistry::FailpointRegistry() {
  if (const char* env = std::getenv("OPCQA_FAILPOINTS")) {
    if (*env != '\0') {
      Status parsed = EnableFromSpec(env);
      if (!parsed.ok()) {
        OPCQA_LOG(Warning) << "ignoring malformed OPCQA_FAILPOINTS: "
                           << parsed.ToString();
      }
    }
  }
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

void FailpointRegistry::Enable(const std::string& site, FailpointSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  Site& entry = sites_[site];
  entry.spec = spec;
  entry.rng_state = seed_ ^ FnvHash(site);
  entry.stats = FailpointStats();
  armed_.store(true, std::memory_order_relaxed);
}

void FailpointRegistry::Disable(const std::string& site) {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.erase(site);
  if (sites_.empty()) armed_.store(false, std::memory_order_relaxed);
}

void FailpointRegistry::DisableAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

void FailpointRegistry::SetSeed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = seed;
  for (auto& [name, site] : sites_) {
    site.rng_state = seed_ ^ FnvHash(name);
    site.stats = FailpointStats();
  }
}

Status FailpointRegistry::EnableFromSpec(std::string_view spec) {
  for (const std::string& piece : Split(spec, ';')) {
    std::string entry = Trim(piece);
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint spec needs site=action: " +
                                     entry);
    }
    std::string site = Trim(entry.substr(0, eq));
    if (site.empty()) {
      return Status::InvalidArgument("empty failpoint site in: " + entry);
    }
    FailpointSpec parsed;
    std::vector<std::string> fields = Split(entry.substr(eq + 1), ',');
    if (fields.empty()) {
      return Status::InvalidArgument("failpoint spec has no action: " +
                                     entry);
    }
    std::string action = Trim(fields[0]);
    if (action == "error") {
      parsed.action = FailpointAction::kError;
    } else if (action == "corrupt") {
      parsed.action = FailpointAction::kCorrupt;
    } else if (action == "delay") {
      parsed.action = FailpointAction::kDelay;
    } else if (action == "crash") {
      parsed.action = FailpointAction::kCrash;
    } else {
      return Status::InvalidArgument("unknown failpoint action '" + action +
                                     "' (error|corrupt|delay|crash)");
    }
    for (size_t i = 1; i < fields.size(); ++i) {
      std::string field = Trim(fields[i]);
      size_t feq = field.find('=');
      if (feq == std::string::npos) {
        return Status::InvalidArgument("failpoint option needs key=value: " +
                                       field);
      }
      std::string key = Trim(field.substr(0, feq));
      std::string value = Trim(field.substr(feq + 1));
      char* end = nullptr;
      if (key == "p") {
        parsed.probability = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || parsed.probability < 0.0 ||
            parsed.probability > 1.0) {
          return Status::OutOfRange("failpoint p must be in [0,1]: " + value);
        }
      } else if (key == "nth") {
        parsed.nth = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || parsed.nth == 0) {
          return Status::OutOfRange("failpoint nth must be >= 1: " + value);
        }
      } else if (key == "count") {
        parsed.max_fires = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || parsed.max_fires == 0) {
          return Status::OutOfRange("failpoint count must be >= 1: " + value);
        }
      } else if (key == "delay") {
        parsed.delay_ms = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str()) {
          return Status::InvalidArgument("bad failpoint delay: " + value);
        }
      } else {
        return Status::InvalidArgument("unknown failpoint option '" + key +
                                       "' (p|nth|count|delay)");
      }
    }
    Enable(site, parsed);
  }
  return Status::Ok();
}

FailpointStats FailpointRegistry::StatsFor(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? FailpointStats() : it->second.stats;
}

uint64_t FailpointRegistry::TotalFires() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [name, site] : sites_) total += site.stats.fires;
  return total;
}

uint64_t FailpointRegistry::NextDraw(Site& site) {
  return SplitMix64(&site.rng_state);
}

std::optional<FailpointAction> FailpointRegistry::Hit(const char* site_name) {
  uint64_t delay_ms = 0;
  std::optional<FailpointAction> fired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sites_.find(site_name);
    if (it == sites_.end()) return std::nullopt;
    Site& site = it->second;
    uint64_t hit = ++site.stats.hits;
    if (site.stats.fires >= site.spec.max_fires) return std::nullopt;
    if (site.spec.nth != 0 && hit != site.spec.nth) return std::nullopt;
    if (site.spec.probability < 1.0) {
      // Top 53 bits → uniform double in [0,1), the usual construction.
      double draw = static_cast<double>(NextDraw(site) >> 11) * 0x1.0p-53;
      if (draw >= site.spec.probability) return std::nullopt;
    }
    ++site.stats.fires;
    fired = site.spec.action;
    delay_ms = site.spec.delay_ms;
  }
  // Sleep outside the registry lock so concurrent sites stay independent.
  if (*fired == FailpointAction::kDelay && delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return fired;
}

void FailpointRegistry::CorruptionDraw(const char* site_name,
                                       uint64_t* position_seed,
                                       uint8_t* xor_byte) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sites_.find(site_name);
  uint64_t draw = it == sites_.end()
                      ? FnvHash(site_name)  // unreachable in practice
                      : NextDraw(it->second);
  *position_seed = draw >> 8;
  // Never XOR with 0 — the fire must actually change the byte.
  *xor_byte = static_cast<uint8_t>(draw) | 1;
}

namespace internal {

Status FailpointStatusHit(const char* site) {
  std::optional<FailpointAction> action =
      FailpointRegistry::Global().Hit(site);
  if (!action.has_value()) return Status::Ok();
  switch (*action) {
    case FailpointAction::kError:
      return Status::Internal(std::string("failpoint fired: ") + site);
    case FailpointAction::kCrash:
      throw FailpointPanic(site);
    case FailpointAction::kDelay:
    case FailpointAction::kCorrupt:  // no buffer at a status site
      return Status::Ok();
  }
  return Status::Ok();
}

void FailpointSideEffectHit(const char* site) {
  std::optional<FailpointAction> action =
      FailpointRegistry::Global().Hit(site);
  if (action.has_value() && *action == FailpointAction::kCrash) {
    throw FailpointPanic(site);
  }
}

void FailpointCorruptHit(const char* site, std::string* bytes) {
  std::optional<FailpointAction> action =
      FailpointRegistry::Global().Hit(site);
  if (!action.has_value()) return;
  if (*action == FailpointAction::kCrash) throw FailpointPanic(site);
  if (*action != FailpointAction::kCorrupt || bytes->empty()) return;
  uint64_t position_seed = 0;
  uint8_t xor_byte = 0;
  FailpointRegistry::Global().CorruptionDraw(site, &position_seed, &xor_byte);
  (*bytes)[position_seed % bytes->size()] ^= static_cast<char>(xor_byte);
}

}  // namespace internal
}  // namespace opcqa

#endif  // OPCQA_FAILPOINTS
