#include "common/failpoint.hpp"

#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "common/strings.hpp"

namespace codesign::fail {

namespace detail {
std::atomic<int> g_armed_count{0};
}  // namespace detail

namespace {

/// The :exit action's status: what a shell reports for kill -9.
constexpr int kExitKilled = 137;

enum class Mode { kAlways, kOnce, kEvery, kProb };

/// One armed site. The spec fields are immutable after configure(); only
/// the counters mutate on the hit path, and they are atomics.
struct Site {
  Mode mode = Mode::kAlways;
  std::uint64_t n = 1;          ///< once:N / every:N argument
  double probability = 0.0;     ///< prob:P argument
  std::uint64_t seed = 1;       ///< prob seed
  bool transient = true;
  bool exit = false;            ///< :exit — _Exit at the hit, no throw
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fires{0};
};

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Site>, std::less<>> armed;
  std::set<std::string, std::less<>> extra_sites;
  /// Counters survive disarming so tests can assert on a finished run.
  std::map<std::string, SiteStats, std::less<>> retired;
  /// Disarmed Site objects are kept alive for the process lifetime — a
  /// concurrent hit() may still hold a pointer. Parking them here (rather
  /// than release()) keeps them reachable, so LeakSanitizer stays quiet.
  std::vector<std::unique_ptr<Site>> graveyard;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

constexpr const char* kBuiltinSites[] = {
    "gemmsim.cache.lookup",
    "gemmsim.select_kernel",
    "gemmsim.des.simulate",
    "advisor.search.evaluate",
    "advisor.checkpoint.journal_create",
    "advisor.checkpoint.journal_append",
    "advisor.checkpoint.compact",
    "advisor.checkpoint.journal_remove",
    "sweep.cell",
    "serve.accept",
    "serve.parse",
    "serve.dispatch",
    "serve.net.read_stall",
    "serve.net.write_drop",
    "serve.net.conn_close",
};

bool is_known_site_locked(Registry& r, std::string_view name) {
  for (const char* s : kBuiltinSites) {
    if (name == s) return true;
  }
  return r.extra_sites.count(name) > 0;
}

/// SplitMix64 finalizer — the per-(seed, token) fire decision for prob
/// triggers. Stateless, so the decision is a pure function of the token and
/// cannot depend on hit order or thread interleaving.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool prob_fires(const Site& site, std::uint64_t token) {
  const std::uint64_t h = mix64(site.seed * 0x632BE59BD9B4E019ULL + token);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return u < site.probability;
}

[[noreturn]] void fire(std::string_view name, Site& site) {
  site.fires.fetch_add(1, std::memory_order_relaxed);
  if (site.exit) std::_Exit(kExitKilled);
  throw InjectedFault(
      str_format("injected fault at failpoint '%.*s' (%s)",
                 static_cast<int>(name.size()), name.data(),
                 site.transient ? "transient" : "fatal"),
      site.transient);
}

void evaluate_hit(std::string_view name, bool has_token,
                  std::uint64_t token) {
  Site* site = nullptr;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.armed.find(name);
    if (it == r.armed.end()) return;
    site = it->second.get();
  }
  // The Site object is never destroyed (configure/clear fold its counters
  // into `retired` and park the allocation in the graveyard), so using it
  // outside the lock is safe.
  const std::uint64_t hit_index =
      site->hits.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based
  switch (site->mode) {
    case Mode::kAlways:
      fire(name, *site);
    case Mode::kOnce:
      if (hit_index == site->n) fire(name, *site);
      return;
    case Mode::kEvery:
      if (hit_index % site->n == 0) fire(name, *site);
      return;
    case Mode::kProb:
      if (prob_fires(*site, has_token ? token : hit_index)) fire(name, *site);
      return;
  }
}

/// Parse one "<site>=<trigger>[:args][:transient|:fatal]" entry.
void configure_one(const std::string& entry) {
  const auto eq = entry.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
    throw ConfigError("failpoint spec '" + entry +
                      "' is malformed (want site=trigger[:args])");
  }
  const std::string name{trim(entry.substr(0, eq))};
  std::vector<std::string> tokens = split(entry.substr(eq + 1), ':');
  for (std::string& t : tokens) t = std::string(trim(t));

  auto site = std::make_unique<Site>();
  // Trailing transient/fatal/exit classifier (default transient).
  if (!tokens.empty() &&
      (iequals(tokens.back(), "transient") || iequals(tokens.back(), "fatal") ||
       iequals(tokens.back(), "exit"))) {
    site->transient = iequals(tokens.back(), "transient");
    site->exit = iequals(tokens.back(), "exit");
    tokens.pop_back();
  }
  if (tokens.empty() || tokens[0].empty()) {
    throw ConfigError("failpoint '" + name + "' has an empty trigger");
  }
  const std::string& mode = tokens[0];
  const std::size_t args = tokens.size() - 1;

  bool disarm = false;
  if (iequals(mode, "off")) {
    if (args != 0) {
      throw ConfigError("failpoint '" + name + "': off takes no arguments");
    }
    disarm = true;
  } else if (iequals(mode, "always")) {
    if (args != 0) {
      throw ConfigError("failpoint '" + name + "': always takes no arguments");
    }
    site->mode = Mode::kAlways;
  } else if (iequals(mode, "once") || iequals(mode, "every")) {
    if (args != 1) {
      throw ConfigError("failpoint '" + name + "': " + mode +
                        " takes exactly one argument (N)");
    }
    const std::int64_t n = parse_int(tokens[1]);
    if (n <= 0) {
      throw ConfigError("failpoint '" + name + "': N must be >= 1, got " +
                        tokens[1]);
    }
    site->mode = iequals(mode, "once") ? Mode::kOnce : Mode::kEvery;
    site->n = static_cast<std::uint64_t>(n);
  } else if (iequals(mode, "prob")) {
    if (args < 1 || args > 2) {
      throw ConfigError("failpoint '" + name +
                        "': prob takes P and an optional seed");
    }
    site->mode = Mode::kProb;
    site->probability = parse_double(tokens[1]);
    if (!(site->probability >= 0.0 && site->probability <= 1.0)) {
      throw ConfigError("failpoint '" + name + "': P must be in [0, 1], got " +
                        tokens[1]);
    }
    if (args == 2) {
      site->seed = static_cast<std::uint64_t>(parse_int(tokens[2]));
    }
  } else {
    throw ConfigError("failpoint '" + name + "': unknown trigger '" + mode +
                      "' (off|always|once:N|every:N|prob:P[:seed])");
  }

  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!is_known_site_locked(r, name)) {
    throw ConfigError("unknown failpoint site '" + name +
                      "' (run with a name from fail::known_sites())");
  }
  auto it = r.armed.find(name);
  if (it != r.armed.end()) {
    // Re-arming (or disarming) an armed site: fold its counters into the
    // retired totals, then park the old Site in the graveyard — a
    // concurrent hit() may still hold a pointer to it.
    SiteStats& t = r.retired[std::string(name)];
    t.hits += it->second->hits.load(std::memory_order_relaxed);
    t.fires += it->second->fires.load(std::memory_order_relaxed);
    r.graveyard.push_back(std::move(it->second));
    r.armed.erase(it);
    detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  if (!disarm) {
    r.armed.emplace(name, std::move(site));
    detail::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void configure(const std::string& spec) {
  for (const std::string& part : split(spec, ',')) {
    const std::string entry{trim(part)};
    if (entry.empty()) continue;
    configure_one(entry);
  }
}

void configure_from_env() {
  const char* spec = std::getenv("CODESIGN_FAILPOINTS");
  if (spec != nullptr && *spec != '\0') configure(spec);
}

void clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, site] : r.armed) {
    (void)name;
    r.graveyard.push_back(std::move(site));  // keep alive, see configure_one
    detail::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
  r.armed.clear();
  r.retired.clear();
}

std::vector<std::string> known_sites() {
  std::vector<std::string> out(std::begin(kBuiltinSites),
                               std::end(kBuiltinSites));
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  out.insert(out.end(), r.extra_sites.begin(), r.extra_sites.end());
  return out;
}

void register_site(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.extra_sites.insert(name);
}

SiteStats stats(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  SiteStats s;
  auto retired = r.retired.find(name);
  if (retired != r.retired.end()) s = retired->second;
  auto it = r.armed.find(name);
  if (it != r.armed.end()) {
    s.hits += it->second->hits.load(std::memory_order_relaxed);
    s.fires += it->second->fires.load(std::memory_order_relaxed);
  }
  return s;
}

void hit(std::string_view site) { evaluate_hit(site, false, 0); }

void hit(std::string_view site, std::uint64_t token) {
  evaluate_hit(site, true, token);
}

std::uint64_t token(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64-bit
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace codesign::fail
