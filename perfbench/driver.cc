// Repo benchmark driver: runs one named workload of the Hyper-M stack through
// its public APIs (HyperMNetwork, ServeEngine, RadioChannel and the obs
// registry), checks the answers, and prints every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1) as the last stdout line:
//
//   perf_driver --workload <publish_1k|query_paper|serve_manet> --seed <n>
//               --seconds <s> --trace <0|1> [--threads <n>] [--size tiny]
//
// Every input (dataset, peer assignment, radio placement, queries, arrival
// schedule, writes) is derived from --seed. The line before the result,
// "SIM {...}", lists the simulated metrics and an input digest; they are
// pure functions of (workload, size, seed) and run.py's self-check compares
// them across runs and thread counts. perfbench/README.md defines each metric
// and the layer -> end-to-end map.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "channel/radio_channel.h"
#include "common/rng.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "sim/dissemination.h"
#include "wavelet/transform.h"

using namespace hyperm;

namespace {

// Pool lanes for every Build and query fan-out. Fixed, so host timings do not
// depend on the machine's core count (the run prints nproc beside it). One
// lane runs every fan-out inline: on a shared 4-core host a fan-out that
// waits for a second lane made query_wall_p99_ms move by up to 2x from run
// to run, against a few percent inline. run.py --selfcheck checks that the
// simulated results match at 4 lanes.
constexpr int kPinnedThreads = 1;

// Stream tags for MixSeed, one per independent input.
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kQueryStream = 2;
constexpr uint64_t kChannelStream = 3;
constexpr uint64_t kNetStream = 4;
constexpr uint64_t kArrivalStream = 5;
constexpr uint64_t kWriteStream = 6;
constexpr uint64_t kMacStream = 7;
constexpr uint64_t kInstanceStream = 8;

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perf_driver: %s\n", what.c_str());
  std::exit(1);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an ascending vector (0 when empty).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  return sorted[std::min(rank, sorted.size()) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// FNV-1a over raw bytes: the input digest the self-check compares.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void AddValue(const T& v) {
    Add(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// --- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = kPinnedThreads;
  bool tiny = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Fail("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--threads") {
      args.threads = std::atoi(value.c_str());
      if (args.threads < 1) Fail("--threads must be >= 1");
    } else if (flag == "--size") {
      if (value != "tiny" && value != "full") Fail("--size takes tiny or full");
      args.tiny = value == "tiny";
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Fail("usage: perf_driver --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1> [--threads <n>] [--size tiny|full]");
  }
  return args;
}

// --- Per-layer ledger ---------------------------------------------------------
//
// In a traced run every call the driver makes into a module goes through
// Ledger::Call. The call's wall time is split between the spans the program
// records itself (obs::Tracer: build/*, query/*, republish) and the
// wrapper's own name; each span's self time is its duration minus what its
// children cover. Layer spans (query/layerN) are recorded at fan-in with
// their worker-measured wall time, so their coverage is their union (the
// longest) on the parallel fan-out and their sum, capped by the parent, on
// the serial one. The tracer is folded and reset after each call, so its
// buffer never fills. Untraced runs pass straight through.

class Ledger {
 public:
  explicit Ledger(bool on) : on_(on) {}

  bool on() const { return on_; }
  void set_serial_fanout(bool serial) { serial_fanout_ = serial; }

  template <typename F>
  auto Call(const char* name, F&& fn) -> decltype(fn()) {
    if (!on_) return fn();
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Reset();
    const double start = NowMs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Fold(name, NowMs() - start);
    } else {
      auto result = fn();
      Fold(name, NowMs() - start);
      return result;
    }
  }

  double Self(const std::string& name) const {
    auto it = self_ms_.find(name);
    return it == self_ms_.end() ? 0.0 : it->second;
  }
  double attributed_ms() const {
    double total = 0.0;
    for (const auto& [name, ms] : self_ms_) total += ms;
    return total;
  }
  uint64_t dropped_spans() const { return dropped_; }

 private:
  static std::string Bucket(const std::string& span) {
    if (span.rfind("query/layer", 0) == 0) return "query/layer";
    return span;
  }

  void Fold(const char* wrapper, double wall_ms) {
    obs::Tracer& tracer = obs::Tracer::Global();
    const std::vector<obs::SpanRecord>& spans = tracer.spans();
    dropped_ += tracer.dropped();
    std::vector<std::vector<size_t>> children(spans.size());
    double roots_ms = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0) {
        roots_ms += spans[i].duration_us / 1000.0;
      } else {
        children[static_cast<size_t>(spans[i].parent)].push_back(i);
      }
    }
    // Layer spans are charged their share of the layer cover, so the
    // buckets add up to the wall time. Children always follow their parent.
    std::vector<double> weight(spans.size(), 1.0);
    for (size_t i = 0; i < spans.size(); ++i) {
      double other = 0.0;
      double layer_sum = 0.0;
      const double layer_cover = LayerCover(spans, i, children[i], &other, &layer_sum);
      const double self_us = std::max(0.0, spans[i].duration_us - other - layer_cover);
      self_ms_[Bucket(spans[i].name)] += weight[i] * self_us / 1000.0;
      for (size_t k : children[i]) {
        if (IsLayer(spans[k])) weight[k] = Ratio(layer_cover, layer_sum);
      }
    }
    self_ms_[wrapper] += std::max(0.0, wall_ms - roots_ms);
    tracer.Reset();
  }

  static bool IsLayer(const obs::SpanRecord& s) { return Bucket(s.name) == "query/layer"; }

  // Microseconds of span `parent` its layer children account for; `other`
  // receives what the remaining children cover, `layer_sum` the layer spans'
  // summed durations. Serial fan-outs run the layers one after another, but
  // levels the backbone serves in one walk each carry the walk's full time,
  // so the sum is capped by the room the other children leave.
  double LayerCover(const std::vector<obs::SpanRecord>& spans, size_t parent,
                    const std::vector<size_t>& kids, double* other,
                    double* layer_sum) const {
    std::vector<std::pair<double, double>> intervals;
    std::vector<std::pair<double, double>> layer_intervals;
    *layer_sum = 0.0;
    for (size_t k : kids) {
      const obs::SpanRecord& s = spans[k];
      const std::pair<double, double> iv{s.start_us, s.start_us + s.duration_us};
      if (IsLayer(s)) {
        *layer_sum += s.duration_us;
        layer_intervals.push_back(iv);
      } else {
        intervals.push_back(iv);
      }
    }
    *other = Union(intervals);
    const double room = std::max(0.0, spans[parent].duration_us - *other);
    return serial_fanout_ ? std::min(*layer_sum, room) : Union(layer_intervals);
  }

  static double Union(std::vector<std::pair<double, double>> iv) {
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > hi) {
        if (open) total += hi - lo;
        lo = a;
        hi = b;
        open = true;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (open) total += hi - lo;
    return total;
  }

  bool on_;
  bool serial_fanout_ = false;
  std::map<std::string, double> self_ms_;
  uint64_t dropped_ = 0;
};

// --- Workload configuration ---------------------------------------------------

enum class Kind { kPublish, kQuery, kServe };

struct Config {
  Kind kind = Kind::kQuery;
  // Inputs.
  int items = 0;
  int dim = 0;
  int families = 8;
  int peers = 0;
  int classes = 8;
  int min_per_class = 4;
  int max_per_class = 20;
  int range_neighbours = 25;  // range eps = distance to the 25th neighbour
  int knn_k = 10;
  int instances = 1;  // independent deployments pooled per run
  // Closed-loop query list per instance (publish_1k, query_paper).
  int range_queries = 0;
  int knn_queries = 0;
  // Serving ladder (serve_manet).
  std::vector<double> ladder_qps;
  double base_rung_ms = 0.0;  // the first rung: long enough for a per-instance p99
  double rung_ms = 0.0;       // every other rung
  double deadline_ms = 0.0;
  int num_templates = 32;
  double zipf_s = 1.0;
  double range_fraction = 0.75;
  int arrivals_per_write = 19;  // one write per 20 operations
};

// --size tiny shrinks every workload for the determinism self-check.
Config MakeConfig(const std::string& workload, bool tiny) {
  Config c;
  if (workload == "publish_1k") {
    c.kind = Kind::kPublish;
    c.items = tiny ? 1500 : 20000;
    c.dim = 64;
    c.peers = tiny ? 64 : 1000;
    c.classes = tiny ? 8 : 64;
    c.max_per_class = std::max(8, c.peers / 32);
    c.range_queries = tiny ? 24 : 150;
    c.knn_queries = tiny ? 8 : 100;
    c.instances = tiny ? 1 : 4;
  } else if (workload == "query_paper") {
    c.kind = Kind::kQuery;
    c.items = tiny ? 600 : 5000;
    c.dim = tiny ? 64 : 512;
    c.peers = tiny ? 16 : 100;
    c.max_per_class = tiny ? 6 : 20;
    c.range_queries = tiny ? 24 : 188;
    c.knn_queries = tiny ? 8 : 62;
    c.instances = tiny ? 1 : 8;
  } else if (workload == "serve_manet") {
    // Ladder around the knee: each instance's base rung has >= 1000 answered
    // queries (its p99 has ten samples beyond it), the top rung saturates.
    c.kind = Kind::kServe;
    c.items = 400;
    c.dim = 32;
    c.peers = 16;
    c.min_per_class = 2;
    c.max_per_class = 3;
    c.ladder_qps = tiny ? std::vector<double>{1.0, 4.0}
                        : std::vector<double>{0.5, 1.5, 3.0, 6.0};
    c.base_rung_ms = tiny ? 20000.0 : 2400000.0;
    c.rung_ms = tiny ? 20000.0 : 300000.0;
    c.instances = tiny ? 1 : 20;
    c.num_templates = 128;
    c.deadline_ms = 60000.0;
  } else {
    Fail("unknown workload '" + workload + "' (publish_1k, query_paper, serve_manet)");
  }
  return c;
}

// Field side (m) for a mean radio degree of `degree` at `range_m`.
double FieldSide(int num_peers, double range_m, double degree) {
  return std::sqrt(static_cast<double>(num_peers) * 3.14159265358979323846 * range_m *
                   range_m / degree);
}

core::HyperMOptions MakeOptions(const Config& c, uint64_t seed, int threads) {
  core::HyperMOptions o;
  o.num_threads = threads;
  if (c.kind == Kind::kQuery) return o;  // the paper configuration
  o.net.unreliable = true;
  o.net.retry.adaptive = true;
  o.net.seed = MixSeed(seed, kNetStream);
  o.channel.enabled = true;
  o.channel.seed = MixSeed(seed, kChannelStream);
  o.channel.field.max_placement_attempts = 5000;
  o.channel.tick_ms = 100.0;
  if (c.kind == Kind::kPublish) {
    // The --scale-smoke deployment of bench_partition, but static and
    // without soft-state refresh: its publication backlog takes ~5e7
    // simulated ms to drain, which is 5e5 mobility ticks, and one republish
    // round re-sends every summary, so with either on the backlog never
    // drains (see README.md).
    o.channel.field.radio_range_m = 50.0;
    o.channel.field.field_size_m = FieldSide(c.peers, 50.0, 12.0);
    o.channel.speed_m_per_s = 0.0;
    return o;
  }
  // serve_manet: CSMA/CA + AODV + backbone on a field of walking peers with
  // soft-state republish, over an 802.11-class radio (bench_routing's). One republish
  // round queues ~5 s of airtime; a 300 s period keeps the rounds from
  // overlapping.
  o.net.summary_ttl_ms = 3000000.0;
  o.net.republish_period_ms = 1200000.0;
  o.channel.field.radio_range_m = 60.0;
  o.channel.field.field_size_m = FieldSide(c.peers, 60.0, 10.0);
  o.channel.speed_m_per_s = 0.5;
  o.channel.bandwidth_bytes_per_ms = 1000.0;
  o.channel.tx_overhead_ms = 1.0;
  o.channel.mac.kind = channel::MacOptions::Kind::kCsmaCa;
  o.channel.mac.seed = MixSeed(seed, kMacStream);
  o.channel.routing.kind = route::RoutingOptions::Kind::kAodv;
  o.backbone.enabled = true;
  o.backbone.digest_cells_per_axis = 24;
  // Digests must outlive the radio graph they describe: at walking speed the
  // graph changes every few seconds, and maintenance every republish period
  // would leave the backbone falling back to CAN on nearly every probe.
  o.backbone.maintenance_period_ms = 2000.0;
  o.backbone.report_period_ms = 10000.0;
  o.backbone.digest_ttl_ms = 30000.0;
  return o;
}

// --- Inputs -------------------------------------------------------------------

struct Inputs {
  data::Dataset dataset;
  data::PeerAssignment assignment;
  std::vector<int> owner;  // item id -> peer
};

Inputs MakeInputs(const Config& c, uint64_t seed) {
  Inputs in;
  Rng rng(MixSeed(seed, kDataStream));
  data::MarkovOptions data_options;
  data_options.count = c.items;
  data_options.dim = c.dim;
  data_options.num_families = c.families;
  Result<data::Dataset> dataset = data::GenerateMarkov(data_options, rng);
  if (!dataset.ok()) Fail("dataset: " + dataset.status().ToString());
  in.dataset = std::move(dataset).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = c.peers;
  assign_options.num_interest_classes = c.classes;
  assign_options.min_peers_per_class = c.min_per_class;
  assign_options.max_peers_per_class = c.max_per_class;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(in.dataset, assign_options, rng);
  if (!assignment.ok()) Fail("assignment: " + assignment.status().ToString());
  in.assignment = std::move(assignment).value();
  in.owner.assign(in.dataset.size(), -1);
  for (size_t p = 0; p < in.assignment.size(); ++p) {
    for (int id : in.assignment[p]) in.owner[static_cast<size_t>(id)] = static_cast<int>(p);
  }
  return in;
}

struct Query {
  int center = 0;  // dataset index
  bool knn = false;
  double epsilon = 0.0;
  int peer = 0;
  std::vector<core::ItemId> truth;  // flat-scan answer
};

// Seeded query list: range queries at the distance of each center's
// range_neighbours-th neighbour, k-NN at knn_k, interleaved.
std::vector<Query> MakeQueries(const Config& c, const Inputs& in, uint64_t seed,
                               const core::FlatIndex& oracle) {
  Rng rng(MixSeed(seed, kQueryStream));
  const int total = c.range_queries + c.knn_queries;
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    Query q;
    // Spread the k-NN queries evenly through the list.
    q.knn = static_cast<int64_t>(i) * c.knn_queries / total !=
            static_cast<int64_t>(i + 1) * c.knn_queries / total;
    q.center = static_cast<int>(rng.NextUint64() % in.dataset.size());
    q.peer = static_cast<int>(rng.NextUint64() % static_cast<uint64_t>(c.peers));
    const Vector& center = in.dataset.items[static_cast<size_t>(q.center)];
    if (q.knn) {
      q.truth = oracle.Knn(center, c.knn_k);
    } else {
      q.epsilon = oracle.KnnRadius(center, c.range_neighbours);
      q.truth = oracle.RangeSearch(center, q.epsilon);
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

double Recall(const std::vector<core::ItemId>& got,
              const std::vector<core::ItemId>& truth) {
  if (truth.empty()) return 1.0;
  const std::set<core::ItemId> have(got.begin(), got.end());
  size_t hit = 0;
  for (core::ItemId id : truth) hit += have.count(id);
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

double SquaredDistance(const Vector& a, const Vector& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

// Range precision gate: every returned item lies inside the query ball.
bool AllInRange(const std::vector<core::ItemId>& got, const Vector& center, double eps,
                const std::vector<Vector>& items) {
  const double limit = eps * eps * (1.0 + 1e-9) + 1e-12;
  for (core::ItemId id : got) {
    if (id < 0 || static_cast<size_t>(id) >= items.size()) return false;
    if (SquaredDistance(items[static_cast<size_t>(id)], center) > limit) return false;
  }
  return true;
}

// --- Results --------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  Metrics e2e;     // end-to-end metrics (host + simulated)
  Metrics sim;     // the simulated subset, plus the input digest
  Metrics layers;  // per-layer metrics (traced runs)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
};

void Put(Metrics& m, const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) value = 0.0;
  m[name] = Metric{value, unit};
}

void PutSim(Outcome& out, const std::string& name, double value, const char* unit) {
  Put(out.e2e, name, value, unit);
  Put(out.sim, name, value, unit);
}

std::string Json(const Metrics& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), metric.value, metric.unit.c_str());
    s += buf;
    first = false;
  }
  return s + "}";
}

// --- Set-up ----------------------------------------------------------------------

struct Bed {
  std::unique_ptr<core::HyperMNetwork> network;
  uint64_t clusters_published = 0;
  double publish_makespan_ms = 0.0;
  uint64_t publish_tx = 0;
};

uint64_t RegistryCounter(const std::string& name) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Radio transmissions on a channel run, overlay + retrieve hops otherwise.
uint64_t TxCount(const core::HyperMNetwork& net) {
  if (net.radio_channel() != nullptr) {
    return net.radio_channel()->counters().radio_transmissions;
  }
  return net.stats().total_hops();
}

// Seed -> network ready: Build, then (radio runs) advance the clock until
// every transmit queue has drained, and check the backlog is not growing.
std::unique_ptr<Bed> Setup(const Config& c, const Inputs& in, uint64_t seed,
                           int threads, Ledger& ledger) {
  auto bed = std::make_unique<Bed>();
  const core::HyperMOptions options = MakeOptions(c, seed, threads);
  Rng rng(MixSeed(seed, kDataStream, 1));
  const uint64_t clusters_before = RegistryCounter("build.clusters_published");
  Result<std::unique_ptr<core::HyperMNetwork>> built = ledger.Call("hyperm.build", [&] {
    return core::HyperMNetwork::Build(in.dataset, in.assignment, options, rng);
  });
  if (!built.ok()) Fail("Build: " + built.status().ToString());
  bed->network = std::move(built).value();
  core::HyperMNetwork& net = *bed->network;
  bed->clusters_published = RegistryCounter("build.clusters_published") - clusters_before;
  bed->publish_tx = TxCount(net);
  if (const channel::RadioChannel* radio = net.radio_channel()) {
    bed->publish_makespan_ms = radio->DrainedAtMs();
    const double drained = radio->DrainedAtMs() + 1.0;
    ledger.Call("sim.advance", [&] { net.AdvanceTo(drained); });
    // Periodic soft state (republish rounds, backbone maintenance) keeps
    // sending while the clock runs. What it leaves queued must be less than
    // the backlog Build left, or the backlog is growing and every query
    // would time the queue.
    const double residual = radio->DrainedAtMs() - net.now();
    if (residual > 0.0 && residual >= bed->publish_makespan_ms) {
      Fail("publication backlog still growing after the drain: " +
           std::to_string(residual) + " ms left of " +
           std::to_string(bed->publish_makespan_ms) + " ms");
    }
  } else {
    std::vector<uint64_t> per_peer(static_cast<size_t>(net.num_peers()));
    for (int p = 0; p < net.num_peers(); ++p) {
      per_peer[static_cast<size_t>(p)] = net.publication_hops(p);
    }
    bed->publish_makespan_ms = sim::ParallelMakespanMs(
        per_peer, sim::AverageInsertBytesPerHop(net.stats()), options.net.link);
    bed->publish_tx = net.stats().hops(sim::TrafficClass::kInsert) +
                      net.stats().hops(sim::TrafficClass::kReplicate);
  }
  return bed;
}

// Runs `count` set-ups (each from scratch, the previous network freed
// first), checks they publish identically, and keeps the last.
std::unique_ptr<Bed> TimedSetups(const Config& c, const Inputs& in, uint64_t seed,
                                 int threads, int count, Ledger& ledger,
                                 std::vector<double>* setup_ms, double inputs_ms) {
  std::unique_ptr<Bed> bed;
  std::optional<std::pair<double, uint64_t>> signature;
  for (int i = 0; i < count; ++i) {
    bed.reset();
    const double start = NowMs();
    bed = Setup(c, in, seed, threads, ledger);
    setup_ms->push_back(inputs_ms + NowMs() - start);
    const std::pair<double, uint64_t> sig{bed->publish_makespan_ms, bed->publish_tx};
    if (signature && *signature != sig) Fail("repeated set-ups published differently");
    signature = sig;
  }
  return bed;
}

// --- Closed loop (publish_1k, query_paper) -------------------------------------

struct LoopSim {
  std::vector<double> latency_ms;  // answered queries, ascending
  double latency_sum_ms = 0.0;     // all queries: the client's sim time
  uint64_t tx = 0;
  double range_recall_sum = 0.0;
  int range_ok = 0;
  double knn_recall_sum = 0.0;
  int knn_ok = 0;
  int answered = 0;
  int errors = 0;
  bool precision_ok = true;
  // Contact yield: contacted peers owning >= 1 returned item (range queries).
  uint64_t contacted = 0;
  uint64_t yielded = 0;
};

struct QueryResult {
  Result<std::vector<core::ItemId>> items = std::vector<core::ItemId>{};
  core::RangeQueryInfo info;
};

QueryResult RunQuery(core::HyperMNetwork& net, const Query& q, const Inputs& in,
                     const Config& c, Ledger& ledger) {
  QueryResult r;
  const Vector& center = in.dataset.items[static_cast<size_t>(q.center)];
  if (q.knn) {
    core::KnnQueryInfo info;
    r.items = ledger.Call("query.call", [&] {
      return net.KnnQuery(center, c.knn_k, core::KnnOptions{}, q.peer, &info);
    });
    r.info = info.range;
  } else {
    r.items = ledger.Call("query.call", [&] {
      return net.RangeQuery(center, q.epsilon, q.peer, -1, &r.info);
    });
  }
  return r;
}

// One pass over the query list with full accounting (the simulated metrics).
// The client is closed-loop: on a simulated clock it issues the next query
// once the previous one has answered.
LoopSim SimPass(core::HyperMNetwork& net, const std::vector<Query>& queries,
                const Inputs& in, const Config& c, Ledger& ledger,
                std::vector<double>* wall_ms) {
  LoopSim s;
  const uint64_t tx_before = TxCount(net);
  for (const Query& q : queries) {
    const uint64_t lost_before = net.soft_state().retrieves_lost;
    const double start = NowMs();
    QueryResult r = RunQuery(net, q, in, c, ledger);
    wall_ms->push_back(NowMs() - start);
    if (!r.items.ok()) {
      ++s.errors;
      continue;
    }
    const std::vector<core::ItemId>& got = r.items.value();
    const double latency = r.info.latency_ms;
    s.latency_sum_ms += latency;
    if (net.unreliable()) {
      ledger.Call("sim.advance", [&] { net.AdvanceTo(net.now() + latency); });
    }
    const bool lost =
        r.info.layers_lost > 0 || net.soft_state().retrieves_lost != lost_before;
    if (!lost) {
      ++s.answered;
      s.latency_ms.push_back(latency);
    }
    ledger.Call("driver.check", [&] {
      const double recall = Recall(got, q.truth);
      if (q.knn) {
        s.knn_recall_sum += recall;
        ++s.knn_ok;
        return;
      }
      s.range_recall_sum += recall;
      ++s.range_ok;
      if (!AllInRange(got, in.dataset.items[static_cast<size_t>(q.center)], q.epsilon,
                      in.dataset.items)) {
        s.precision_ok = false;
      }
      std::set<int> owners;
      for (core::ItemId id : got) owners.insert(in.owner[static_cast<size_t>(id)]);
      s.contacted += static_cast<uint64_t>(r.info.peers_contacted);
      s.yielded += owners.size();
    });
  }
  s.tx = TxCount(net) - tx_before;
  std::sort(s.latency_ms.begin(), s.latency_ms.end());
  return s;
}

// --- Serving ladder (serve_manet) ----------------------------------------------

struct RungSim {
  double offered_qps = 0.0;
  serve::ServeStats totals;     // summed over segments (t2a unused)
  uint64_t answered = 0;        // completed without a lost retrieve
  std::vector<double> t2a_ms;   // their time-to-answer, ascending
  double miss_frac = 0.0;       // (offered - deadline met) / offered
  double end_backlog_ms = 0.0;
  uint64_t epoch_bumps = 0;
  uint64_t shortcut_hits = 0;
  uint64_t shortcut_stale = 0;
};

struct LadderSim {
  std::vector<RungSim> rungs;
  uint64_t serve_tx = 0;
  uint64_t completed = 0;
  double range_recall_sum = 0.0;
  int range_n = 0;
  double knn_recall_sum = 0.0;
  int knn_n = 0;
  bool precision_ok = true;
  bool accounting_ok = true;
  uint64_t write_errors = 0;
  uint64_t writes = 0;
  double publish_makespan_ms = 0.0;
  uint64_t publish_tx = 0;
  uint64_t clusters = 0;
  // Per-layer inputs summed over the rungs' networks.
  channel::ChannelCounters channel;
  channel::MacCounters mac;
  route::RoutingCounters route;
  backbone::BackboneCounters backbone;
  uint64_t contacted = 0;
  uint64_t yielded = 0;
};

// Template population: centers drawn from the dataset, range eps at the
// range_neighbours-th neighbour distance, the first range_fraction range.
std::vector<serve::QueryTemplate> MakeTemplates(const Config& c, const Inputs& in,
                                                uint64_t seed,
                                                const core::FlatIndex& oracle,
                                                std::vector<int>* centers) {
  Rng rng(MixSeed(seed, kQueryStream));
  std::vector<serve::QueryTemplate> templates;
  const int num_range =
      static_cast<int>(std::lround(c.range_fraction * c.num_templates));
  for (int i = 0; i < c.num_templates; ++i) {
    serve::QueryTemplate t;
    const int center = static_cast<int>(rng.NextUint64() % in.dataset.size());
    centers->push_back(center);
    t.center = in.dataset.items[static_cast<size_t>(center)];
    t.knn = i >= num_range;
    if (t.knn) {
      t.k = c.knn_k;
    } else {
      t.epsilon = oracle.KnnRadius(t.center, c.range_neighbours);
    }
    templates.push_back(std::move(t));
  }
  return templates;
}

// Flat-scan answer over the first `count` items (dataset, then writes).
std::vector<core::ItemId> Truth(const serve::QueryTemplate& t,
                                const std::vector<Vector>& items, size_t count) {
  std::vector<std::pair<double, core::ItemId>> d;
  d.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    d.emplace_back(SquaredDistance(items[i], t.center), static_cast<core::ItemId>(i));
  }
  std::vector<core::ItemId> out;
  if (t.knn) {
    const size_t k = std::min(count, static_cast<size_t>(t.k));
    std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k), d.end());
    for (size_t i = 0; i < k; ++i) out.push_back(d[i].second);
  } else {
    const double eps_sq = t.epsilon * t.epsilon;
    for (const auto& [dist, id] : d) {
      if (dist <= eps_sq) out.push_back(id);
    }
  }
  return out;
}

struct Completion {
  int template_id = 0;
  std::vector<core::ItemId> items;
  bool cache_hit = false;
  double t2a_ms = 0.0;
  bool lost = false;
  size_t visible_items = 0;        // dataset + writes made before the query
  uint64_t contacted_total = 0;    // query.peers_contacted sum after it ran
};

// Sums the accounting fields of a serving run (t2a samples are kept apart).
void AddStats(serve::ServeStats& into, const serve::ServeStats& s) {
  into.offered += s.offered;
  into.admitted += s.admitted;
  into.shed += s.shed;
  into.shed_tx_backlog += s.shed_tx_backlog;
  into.shed_dispatch_lag += s.shed_dispatch_lag;
  into.cache_hits += s.cache_hits;
  into.cache_misses += s.cache_misses;
  into.completed += s.completed;
  into.failed += s.failed;
  into.deadline_met += s.deadline_met;
}

void AddCounters(LadderSim& L, const core::HyperMNetwork& net) {
  const channel::RadioChannel& radio = *net.radio_channel();
  const channel::ChannelCounters& cc = radio.counters();
  L.channel.radio_transmissions += cc.radio_transmissions;
  L.channel.queue_wait_ms += cc.queue_wait_ms;
  L.channel.queued_transmissions += cc.queued_transmissions;
  L.channel.unreachable_transmissions += cc.unreachable_transmissions;
  L.channel.disconnected_steps += cc.disconnected_steps;
  const channel::MacCounters& mc = radio.mac().counters();
  L.mac.frames_sent += mc.frames_sent;
  L.mac.deferrals += mc.deferrals;
  L.mac.collisions += mc.collisions;
  L.mac.retransmits += mc.retransmits;
  L.mac.drops_retry_limit += mc.drops_retry_limit;
  const route::RoutingCounters& rc = radio.router().counters();
  L.route.resolutions += rc.resolutions;
  L.route.discoveries += rc.discoveries;
  L.route.discovery_failures += rc.discovery_failures;
  L.route.route_errors += rc.route_errors;
  L.route.control_frames += rc.control_frames;
  if (const backbone::BackboneManager* bb = net.backbone()) {
    const backbone::BackboneCounters& b = bb->counters();
    L.backbone.probes_served += b.probes_served;
    L.backbone.probes_fallback += b.probes_fallback;
    L.backbone.elections += b.elections;
    L.backbone.digest_bytes += b.digest_bytes;
  }
}

// One ladder pass: per rung a fresh network (one timed set-up), then the
// rung's open-loop schedule served in segments with one write between
// segments. Host per-query wall is the gap between consecutive completions.
LadderSim RunLadder(const Config& c, const Inputs& in, uint64_t seed, int threads,
                    const std::vector<serve::QueryTemplate>& templates, Ledger& ledger,
                    std::vector<double>* setup_ms, double inputs_ms,
                    std::vector<double>* wall_ms) {
  LadderSim L;
  for (size_t rung = 0; rung < c.ladder_qps.size(); ++rung) {
    const double setup_start = NowMs();
    std::unique_ptr<Bed> bed = Setup(c, in, seed, threads, ledger);
    setup_ms->push_back(inputs_ms + NowMs() - setup_start);
    core::HyperMNetwork& net = *bed->network;
    if (rung == 0) {
      L.publish_makespan_ms = bed->publish_makespan_ms;
      L.publish_tx = bed->publish_tx;
      L.clusters = bed->clusters_published;
    } else if (bed->publish_tx != L.publish_tx) {
      Fail("repeated set-ups published differently");
    }
    ledger.set_serial_fanout(net.unreliable());

    serve::ServeOptions options;
    options.workload.duration_ms = rung == 0 ? c.base_rung_ms : c.rung_ms;
    options.workload.offered_qps = c.ladder_qps[rung];
    options.workload.num_templates = c.num_templates;
    options.workload.zipf_s = c.zipf_s;
    options.workload.range_fraction = c.range_fraction;
    options.workload.seed = MixSeed(seed, kArrivalStream, rung);
    options.knn_k = c.knn_k;
    options.deadline_ms = c.deadline_ms;
    options.cache.enabled = true;
    options.cache.ttl_ms = 60000.0;
    options.shortcuts.enabled = true;
    options.admission.max_backlog_ms = c.deadline_ms;
    options.admission.max_lag_ms = c.deadline_ms;
    const std::vector<serve::Arrival> schedule =
        serve::GenerateArrivals(options.workload, net.num_peers());

    std::vector<Vector> items = in.dataset.items;
    std::vector<int> owner = in.owner;
    Rng write_rng(MixSeed(seed, kWriteStream, rung));
    RungSim R;
    R.offered_qps = c.ladder_qps[rung];
    const uint64_t epoch_start = net.summary_epoch();
    const double rung_start = net.now();
    std::vector<Completion> completions;
    // Traced runs read the query.peers_contacted sum after every completion
    // to get each query's contacted peers (for query.contact_yield).
    const obs::Histogram* contacted_hist = nullptr;
    uint64_t contacted_start = 0;
    if (ledger.on()) {
      contacted_hist = &obs::MetricsRegistry::Global().GetHistogram(
          "query.peers_contacted", obs::Buckets::Exponential(1, 2.0, 12));
      contacted_start = static_cast<uint64_t>(contacted_hist->Snapshot().sum);
    }
    serve::ServeEngine engine(&net, options);
    const size_t step = static_cast<size_t>(c.arrivals_per_write);
    for (size_t begin = 0; begin < schedule.size(); begin += step) {
      const size_t end = std::min(schedule.size(), begin + step);
      // Arrival times stay on the rung's schedule: a segment that starts
      // late carries negative offsets, which the engine bills as lag.
      std::vector<serve::Arrival> segment(
          schedule.begin() + static_cast<std::ptrdiff_t>(begin),
          schedule.begin() + static_cast<std::ptrdiff_t>(end));
      const double offset = net.now() - rung_start;
      for (serve::Arrival& a : segment) a.t_ms -= offset;
      const uint64_t tx_before = TxCount(net);
      uint64_t lost_before = net.soft_state().retrieves_lost;
      double last = NowMs();
      Result<serve::ServeStats> stats = ledger.Call("serve.run", [&] {
        return engine.Run(
            templates, segment,
            [&](const serve::Arrival& a, const std::vector<core::ItemId>& got,
                bool cache_hit, double t2a) {
              const double now = NowMs();
              wall_ms->push_back(now - last);
              last = now;
              Completion done;
              done.template_id = a.template_id;
              done.items = got;
              done.cache_hit = cache_hit;
              done.t2a_ms = t2a;
              done.lost = net.soft_state().retrieves_lost != lost_before;
              lost_before = net.soft_state().retrieves_lost;
              done.visible_items = items.size();
              if (contacted_hist != nullptr) {
                done.contacted_total =
                    static_cast<uint64_t>(contacted_hist->Snapshot().sum);
              }
              completions.push_back(std::move(done));
            });
      });
      if (!stats.ok()) Fail("ServeEngine::Run: " + stats.status().ToString());
      const serve::ServeStats& s = stats.value();
      L.serve_tx += TxCount(net) - tx_before;
      if (s.offered != s.admitted + s.shed || s.admitted != s.completed + s.failed ||
          s.cache_hits + s.cache_misses != s.admitted) {
        L.accounting_ok = false;
      }
      AddStats(R.totals, s);
      if (end == schedule.size()) break;
      // The write: a new item near an existing one at a seeded peer, which
      // then re-clusters and re-publishes (summary_epoch moves twice).
      const int peer = static_cast<int>(write_rng.NextUint64() %
                                        static_cast<uint64_t>(net.num_peers()));
      Vector v = in.dataset.items[write_rng.NextUint64() % in.dataset.size()];
      for (double& x : v) x += 0.01 * (write_rng.NextDouble() - 0.5);
      const core::ItemId id = static_cast<core::ItemId>(items.size());
      const Status st = ledger.Call("hyperm.write", [&] {
        net.AddItemWithoutRepublish(peer, id, v);
        return net.RepublishPeer(peer, write_rng);
      });
      ++L.writes;
      if (!st.ok()) ++L.write_errors;
      items.push_back(std::move(v));
      owner.push_back(peer);
    }
    R.epoch_bumps = net.summary_epoch() - epoch_start;
    R.end_backlog_ms = net.radio_channel()->MaxQueueBacklogMs(net.now());
    R.shortcut_hits = engine.shortcuts().stats().hits;
    R.shortcut_stale = engine.shortcuts().stats().stale;

    // Score every answer against the items its query could see.
    ledger.Call("driver.check", [&] {
      uint64_t prev_contacted = contacted_start;
      for (const Completion& done : completions) {
        const serve::QueryTemplate& t = templates[static_cast<size_t>(done.template_id)];
        const double recall = Recall(done.items, Truth(t, items, done.visible_items));
        if (t.knn) {
          L.knn_recall_sum += recall;
          ++L.knn_n;
        } else {
          L.range_recall_sum += recall;
          ++L.range_n;
          if (!AllInRange(done.items, t.center, t.epsilon, items)) L.precision_ok = false;
          if (contacted_hist != nullptr && !done.cache_hit) {
            std::set<int> owners;
            for (core::ItemId id : done.items) owners.insert(owner[static_cast<size_t>(id)]);
            L.contacted += done.contacted_total - prev_contacted;
            L.yielded += owners.size();
          }
        }
        if (!done.cache_hit) prev_contacted = done.contacted_total;
        if (!done.lost) {
          ++R.answered;
          R.t2a_ms.push_back(done.t2a_ms);
        }
      }
    });
    std::sort(R.t2a_ms.begin(), R.t2a_ms.end());
    L.completed += R.totals.completed;
    R.miss_frac = Ratio(static_cast<double>(R.totals.offered - R.totals.deadline_met),
                        static_cast<double>(R.totals.offered));
    L.rungs.push_back(R);
    AddCounters(L, net);
  }
  return L;
}

// True iff two ladder passes produced the same simulated outcome.
bool SameOutcome(const LadderSim& a, const LadderSim& b) {
  if (a.serve_tx != b.serve_tx || a.rungs.size() != b.rungs.size()) return false;
  for (size_t i = 0; i < a.rungs.size(); ++i) {
    if (a.rungs[i].t2a_ms != b.rungs[i].t2a_ms ||
        a.rungs[i].totals.deadline_met != b.rungs[i].totals.deadline_met) {
      return false;
    }
  }
  return true;
}

// Offered rate at which the deadline-miss share (late, shed or failed)
// crosses 1%: the rate whose p99, counting refusals as misses, meets the
// deadline. Interpolated linearly between the last rung under 1% and the
// first over it, so the figure moves smoothly instead of by whole rungs.
double SustainableQps(const std::vector<RungSim>& rungs) {
  constexpr double kMissBudget = 0.01;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (rungs[i].miss_frac <= kMissBudget) continue;
    if (i == 0) return rungs[0].offered_qps * kMissBudget / rungs[0].miss_frac;
    const RungSim& a = rungs[i - 1];
    const RungSim& b = rungs[i];
    const double f = (kMissBudget - a.miss_frac) / (b.miss_frac - a.miss_frac);
    return a.offered_qps + f * (b.offered_qps - a.offered_qps);
  }
  return rungs.back().offered_qps;
}

// --- Per-layer replays -------------------------------------------------------------

double ReplayDecomposeMs(const Inputs& in) {
  const double start = NowMs();
  size_t sink = 0;
  for (const Vector& item : in.dataset.items) {
    Result<wavelet::Pyramid> p =
        wavelet::DecomposeWith(wavelet::WaveletKind::kHaarAveraging, item);
    if (!p.ok()) Fail("Decompose: " + p.status().ToString());
    sink += p.value().details.size();
  }
  if (sink == 0) Fail("Decompose produced no levels");
  return NowMs() - start;
}

// Mean microseconds per CompileRangePlan over the workload's range queries,
// repeated until at least `min_calls` calls.
double ReplayPlanUs(const core::HyperMNetwork& net, const Inputs& in,
                    const std::vector<std::pair<int, double>>& ranges, size_t min_calls) {
  if (ranges.empty()) return 0.0;
  size_t calls = 0;
  size_t sink = 0;
  const double start = NowMs();
  while (calls < min_calls) {
    for (const auto& [center, eps] : ranges) {
      sink += net.CompileRangePlan(in.dataset.items[static_cast<size_t>(center)], eps)
                  .probes.size();
      ++calls;
    }
  }
  if (sink == 0) Fail("CompileRangePlan produced no probes");
  return (NowMs() - start) * 1000.0 / static_cast<double>(calls);
}

// Transmit and mobility-step replays on a standalone RadioChannel over the
// workload's field (same options, fresh queues). Zero when the workload
// runs without a channel.
void ReplayChannel(const core::HyperMOptions& options, int num_peers, uint64_t seed,
                   double* transmit_us, double* step_ms) {
  *transmit_us = 0.0;
  *step_ms = 0.0;
  if (!options.channel.enabled) return;
  sim::NetworkStats stats;
  Result<std::unique_ptr<channel::RadioChannel>> created =
      channel::RadioChannel::Create(num_peers, options.channel, &stats);
  if (!created.ok()) Fail("RadioChannel::Create: " + created.status().ToString());
  channel::RadioChannel& radio = *created.value();
  Rng rng(MixSeed(seed, kChannelStream, 7));
  constexpr int kSends = 20000;
  double now = 0.0;
  double start = NowMs();
  for (int i = 0; i < kSends; ++i) {
    net::Message m;
    m.type = net::MessageType::kRetrieveRequest;
    m.src = static_cast<int>(rng.NextUint64() % static_cast<uint64_t>(num_peers));
    m.dst = static_cast<int>(rng.NextUint64() % static_cast<uint64_t>(num_peers));
    m.bytes = 64;
    m.cls = sim::TrafficClass::kQuery;
    now += 1000.0;  // idle queues: time the path, not the backlog
    radio.Transmit(m, now);
  }
  *transmit_us = (NowMs() - start) * 1000.0 / kSends;
  constexpr int kSteps = 200;
  start = NowMs();
  for (int i = 0; i < kSteps; ++i) radio.Step();
  *step_ms = (NowMs() - start) / kSteps;
}

// --- Per-layer metrics ----------------------------------------------------------

struct Registry {
  obs::MetricsSnapshot snap;
  double Counter(const std::string& name) const {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  const obs::HistogramSnapshot* Hist(const std::string& name) const {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? nullptr : &it->second;
  }
  double Mean(const std::string& name) const {
    const obs::HistogramSnapshot* h = Hist(name);
    return h == nullptr ? 0.0 : h->mean();
  }
  double Sum(const std::string& name) const {
    const obs::HistogramSnapshot* h = Hist(name);
    return h == nullptr ? 0.0 : h->sum;
  }
  double P99(const std::string& name) const {
    const obs::HistogramSnapshot* h = Hist(name);
    return h == nullptr || h->count == 0 ? 0.0 : h->Quantile(0.99);
  }
};

// Metrics every workload reports from the ledger and the registry.
void PutLayerCommon(Metrics& m, const Ledger& ledger, const Registry& r) {
  Put(m, "build.decompose_self_ms", ledger.Self("build/decompose"), "ms");
  Put(m, "build.overlays_self_ms", ledger.Self("build/overlays"), "ms");
  Put(m, "build.publish_self_ms", ledger.Self("build/publish"), "ms");
  Put(m, "build.backbone_self_ms", ledger.Self("build/backbone"), "ms");
  Put(m, "query.score_self_ms", ledger.Self("query/score") + ledger.Self("query/knn"), "ms");
  Put(m, "query.layer_self_ms", ledger.Self("query/layer"), "ms");
  Put(m, "query.retrieve_self_ms", ledger.Self("query/retrieve"), "ms");
  Put(m, "sim.advance_ms", ledger.Self("sim.advance"), "ms");
  Put(m, "serve.run_ms", ledger.Self("serve.run"), "ms");
  Put(m, "common.pool_wall_ms", r.Sum("pool.wall_us") / 1000.0, "ms");
  Put(m, "common.pool_tasks", r.Counter("pool.tasks"), "count");
  Put(m, "cluster.kmeans_ms", r.Sum("kmeans.wall_us") / 1000.0, "ms");
  Put(m, "cluster.kmeans_iterations_mean", r.Mean("kmeans.iterations"), "count");
  Put(m, "query.candidate_peers_mean", r.Mean("query.candidate_peers"), "count");
  Put(m, "query.peers_contacted_mean", r.Mean("query.peers_contacted"), "count");
  Put(m, "can.route_hops_mean", r.Mean("can.route_hops"), "count");
  Put(m, "can.route_hops_p99", r.P99("can.route_hops"), "count");
  Put(m, "can.flood_nodes_visited_mean", r.Mean("can.flood_nodes_visited"), "count");
  Put(m, "can.insert_replicas_mean", r.Mean("can.insert_replicas"), "count");
  Put(m, "can.zone_splits", r.Counter("can.zone_splits"), "count");
  const double messages = r.Counter("net.messages");
  const double retries = r.Counter("net.retries");
  const double dead = r.Counter("net.dead_letters");
  Put(m, "net.messages", messages, "count");
  Put(m, "net.hops", r.Counter("net.hops"), "count");
  Put(m, "net.retries", retries, "count");
  Put(m, "net.dead_letters", dead, "count");
  for (const char* cause : {"loss", "unreachable", "mac", "partition", "down"}) {
    const std::string name = std::string("net.dropped_") + cause;
    Put(m, name, r.Counter(name), "count");
  }
  // Logical messages delivered: physical sends minus retransmissions, less
  // the dead letters.
  Put(m, "net.delivery_ratio", 1.0 - Ratio(dead, messages - retries), "ratio");
  Put(m, "channel.queue.backlog_ms_p99", r.P99("channel.queue.backlog_ms"), "ms");
  const double rc_hits = r.Counter("channel.route_cache.hits");
  Put(m, "channel.route_cache.hit_ratio",
      Ratio(rc_hits, rc_hits + r.Counter("channel.route_cache.misses")), "ratio");
  Put(m, "sim.coalesced", r.Counter("sim.coalesced"), "count");
  Put(m, "obs.dropped_events", static_cast<double>(ledger.dropped_spans()), "count");
}

void PutChannelLayers(Metrics& m, const channel::ChannelCounters& cc,
                      const channel::MacCounters& mac, const route::RoutingCounters& rc,
                      const backbone::BackboneCounters& bb) {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  Put(m, "channel.radio_transmissions", d(cc.radio_transmissions), "count");
  Put(m, "channel.queue_wait_ms", cc.queue_wait_ms, "ms");
  Put(m, "channel.queued_frac", Ratio(d(cc.queued_transmissions), d(cc.radio_transmissions)),
      "ratio");
  Put(m, "channel.unreachable", d(cc.unreachable_transmissions), "count");
  Put(m, "channel.disconnected_steps", d(cc.disconnected_steps), "count");
  Put(m, "channel.mac.deferrals", d(mac.deferrals), "count");
  Put(m, "channel.mac.collisions", d(mac.collisions), "count");
  Put(m, "channel.mac.retransmits", d(mac.retransmits), "count");
  Put(m, "channel.mac.drops_retry_limit", d(mac.drops_retry_limit), "count");
  // Share of physical frames that were first attempts.
  Put(m, "channel.mac.first_try_ratio",
      mac.frames_sent > 0 ? 1.0 - Ratio(d(mac.retransmits), d(mac.frames_sent)) : 0.0,
      "ratio");
  Put(m, "route.discoveries", d(rc.discoveries), "count");
  Put(m, "route.discovery_failures", d(rc.discovery_failures), "count");
  Put(m, "route.errors", d(rc.route_errors), "count");
  Put(m, "route.control_frames_per_msg", Ratio(d(rc.control_frames), d(rc.resolutions)),
      "ratio");
  Put(m, "backbone.probes_served", d(bb.probes_served), "count");
  Put(m, "backbone.fallbacks", d(bb.probes_fallback), "count");
  Put(m, "backbone.elections", d(bb.elections), "count");
  Put(m, "backbone.digest_bytes", d(bb.digest_bytes), "count");
  Put(m, "backbone.fallback_ratio",
      Ratio(d(bb.probes_fallback), d(bb.probes_served + bb.probes_fallback)), "ratio");
}

void PutReplays(Metrics& m, const core::HyperMNetwork& net, const Inputs& in,
                const core::HyperMOptions& options, int num_peers, uint64_t seed,
                const std::vector<std::pair<int, double>>& ranges) {
  Put(m, "query.plan_us", ReplayPlanUs(net, in, ranges, 2000), "us");
  Put(m, "wavelet.decompose_ms", ReplayDecomposeMs(in), "ms");
  double transmit_us = 0.0;
  double step_ms = 0.0;
  ReplayChannel(options, num_peers, seed, &transmit_us, &step_ms);
  Put(m, "channel.transmit_us", transmit_us, "us");
  Put(m, "manet.step_ms", step_ms, "ms");
}

// --- Workload runners -----------------------------------------------------------------

// Host query metrics from per-query walls in the order they ran. The run is
// cut into consecutive windows of at least 1000 queries (so each window's
// p99 has ten samples beyond it), and each metric is the median over the
// windows: another process stealing the cores for a few seconds then moves
// one window, not the run's figure.
void PutHostQuery(Outcome& out, const std::vector<double>& wall_ms) {
  constexpr size_t kWindow = 1000;
  const size_t windows = std::max<size_t>(1, wall_ms.size() / kWindow);
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (size_t w = 0; w < windows; ++w) {
    const auto first = wall_ms.begin() + static_cast<std::ptrdiff_t>(w * kWindow);
    const auto last = w + 1 == windows ? wall_ms.end()
                                       : first + static_cast<std::ptrdiff_t>(kWindow);
    std::vector<double> window(first, last);
    double total_ms = 0.0;
    for (double v : window) total_ms += v;
    std::sort(window.begin(), window.end());
    qps.push_back(Ratio(static_cast<double>(window.size()), total_ms / 1000.0));
    p50.push_back(Percentile(window, 0.50));
    p99.push_back(Percentile(window, 0.99));
  }
  Put(out.e2e, "query_qps", Median(qps), "1/s");
  Put(out.e2e, "query_wall_p50_ms", Median(p50), "ms");
  Put(out.e2e, "query_wall_p99_ms", Median(p99), "ms");
  std::printf("host query samples: %zu in %zu windows\n", wall_ms.size(), windows);
}

void AddInputs(Digest& digest, const Inputs& in, const core::HyperMOptions& options) {
  for (const Vector& v : in.dataset.items) digest.Add(v.data(), v.size() * sizeof(double));
  for (const std::vector<int>& ids : in.assignment) {
    digest.Add(ids.data(), ids.size() * sizeof(int));
  }
  digest.AddValue(options.channel.seed);
  digest.AddValue(options.net.seed);
}

// Every run pools several independent deployments ("instances"), each with
// its own inputs from MixSeed(seed, instance): one deployment's layout (CAN
// zones, hot radio relays) moves the figures more than anything else does.
uint64_t InstanceSeed(uint64_t seed, int instance) {
  return MixSeed(seed, kInstanceStream, static_cast<uint64_t>(instance));
}

void MergeLoop(LoopSim& into, const LoopSim& from) {
  into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(),
                         from.latency_ms.end());
  std::sort(into.latency_ms.begin(), into.latency_ms.end());
  into.latency_sum_ms += from.latency_sum_ms;
  into.tx += from.tx;
  into.range_recall_sum += from.range_recall_sum;
  into.range_ok += from.range_ok;
  into.knn_recall_sum += from.knn_recall_sum;
  into.knn_ok += from.knn_ok;
  into.answered += from.answered;
  into.errors += from.errors;
  into.precision_ok = into.precision_ok && from.precision_ok;
  into.contacted += from.contacted;
  into.yielded += from.yielded;
}

void PutIdleServeLayers(Metrics& m) {
  for (const char* name : {"serve.cache.hit_ratio", "serve.shortcut.hit_ratio"}) {
    Put(m, name, 0.0, "ratio");
  }
  for (const char* name :
       {"serve.shed.tx_backlog", "serve.shed.dispatch_lag", "serve.epoch_bumps"}) {
    Put(m, name, 0.0, "count");
  }
}

// Per-layer metrics of one closed-loop instance: a fresh set-up plus the
// same accounted pass, every module call wrapped by the ledger; registry
// counters cover exactly this scope.
void TraceClosedLoop(const Config& c, const Args& args, uint64_t seed, const Inputs& in,
                     const std::vector<Query>& queries, const LoopSim& untraced_sim,
                     double untraced_scope_ms, Metrics& m) {
  Ledger ledger(true);
  obs::MetricsRegistry::Global().Reset();
  std::vector<double> setup_ms;
  std::vector<double> wall_ms;
  const double start = NowMs();
  const std::unique_ptr<Bed> bed =
      TimedSetups(c, in, seed, args.threads, 1, ledger, &setup_ms, 0.0);
  ledger.set_serial_fanout(bed->network->unreliable());
  const LoopSim traced = SimPass(*bed->network, queries, in, c, ledger, &wall_ms);
  const double scope_ms = NowMs() - start;
  const Registry reg{obs::MetricsRegistry::Global().Snapshot()};
  if (traced.tx != untraced_sim.tx || traced.latency_ms != untraced_sim.latency_ms) {
    Fail("traced pass diverged from the untraced one");
  }
  PutLayerCommon(m, ledger, reg);
  Put(m, "query.contact_yield",
      Ratio(static_cast<double>(traced.yielded), static_cast<double>(traced.contacted)),
      "ratio");
  const core::HyperMNetwork& net = *bed->network;
  channel::ChannelCounters cc;
  channel::MacCounters mac;
  route::RoutingCounters rc;
  if (const channel::RadioChannel* radio = net.radio_channel()) {
    cc = radio->counters();
    mac = radio->mac().counters();
    rc = radio->router().counters();
  }
  PutChannelLayers(m, cc, mac, rc, backbone::BackboneCounters{});
  PutIdleServeLayers(m);
  Put(m, "wall.unattributed_ms", scope_ms - ledger.attributed_ms(), "ms");
  Put(m, "obs.trace_overhead_frac", scope_ms / untraced_scope_ms - 1.0, "ratio");
  std::vector<std::pair<int, double>> ranges;
  for (const Query& q : queries) {
    if (!q.knn) ranges.emplace_back(q.center, q.epsilon);
  }
  PutReplays(m, net, in, MakeOptions(c, seed, args.threads), c.peers, seed, ranges);
}

// publish_1k and query_paper. A traced run covers instance 0 only.
Outcome RunClosedLoop(const Config& c, const Args& args) {
  Outcome out;
  Ledger untraced(false);
  const int instances = args.trace ? 1 : c.instances;
  LoopSim pooled;
  Digest digest;
  std::vector<double> setup_ms;
  std::vector<double> wall_ms;
  std::vector<double> makespan_ms;
  uint64_t publish_tx = 0;
  uint64_t clusters = 0;
  for (int i = 0; i < instances; ++i) {
    const uint64_t seed = InstanceSeed(args.seed, i);
    const double inputs_start = NowMs();
    const Inputs in = MakeInputs(c, seed);
    const double inputs_ms = NowMs() - inputs_start;
    const core::FlatIndex oracle(in.dataset);
    const std::vector<Query> queries = MakeQueries(c, in, seed, oracle);
    AddInputs(digest, in, MakeOptions(c, seed, args.threads));
    for (const Query& q : queries) {
      digest.AddValue(q.center);
      digest.AddValue(q.peer);
      digest.AddValue(q.epsilon);
    }
    // A traced run times one set-up and pass untraced as the overhead
    // reference, after one warm-up set-up.
    std::unique_ptr<Bed> bed = TimedSetups(c, in, seed, args.threads, args.trace ? 2 : 1,
                                           untraced, &setup_ms, inputs_ms);
    const double pass_start = NowMs();
    const LoopSim sim = SimPass(*bed->network, queries, in, c, untraced, &wall_ms);
    const double untraced_scope_ms = setup_ms.back() - inputs_ms + NowMs() - pass_start;
    makespan_ms.push_back(bed->publish_makespan_ms);
    publish_tx += bed->publish_tx;
    clusters += bed->clusters_published;
    MergeLoop(pooled, sim);
    if (args.trace) {
      bed.reset();
      TraceClosedLoop(c, args, seed, in, queries, sim, untraced_scope_ms, out.layers);
      continue;
    }
    // Timed loop: this instance's share of the run's seconds, cycling the
    // list (host samples only).
    const double end = pass_start + args.seconds * 1000.0 / instances;
    core::HyperMNetwork& net = *bed->network;
    for (size_t q = 0; NowMs() < end; q = (q + 1) % queries.size()) {
      const double start = NowMs();
      QueryResult r = RunQuery(net, queries[q], in, c, untraced);
      wall_ms.push_back(NowMs() - start);
      if (!r.items.ok()) Fail("query error in the timed loop: " + r.items.status().ToString());
      if (net.unreliable()) net.AdvanceTo(net.now() + r.info.latency_ms);
    }
  }

  const int total = instances * (c.range_queries + c.knn_queries);
  out.attempted = static_cast<uint64_t>(total);
  out.failed = static_cast<uint64_t>(pooled.errors);
  if (pooled.errors > 0) out.violations.push_back("queries returned errors");
  if (!pooled.precision_ok) out.violations.push_back("range precision below 1");
  const double range_recall = Ratio(pooled.range_recall_sum, pooled.range_ok);
  if (c.kind == Kind::kQuery && range_recall < 1.0) {
    out.violations.push_back("range recall below 1 on the fault-free paper configuration");
  }
  if (!args.trace) {
    Put(out.e2e, "setup_s", Median(setup_ms) / 1000.0, "s");
    PutHostQuery(out, wall_ms);
    Put(out.e2e, "peak_rss_mb", PeakRssMb(), "MB");
  }
  const double sim_s = pooled.latency_sum_ms / 1000.0;
  PutSim(out, "publish_makespan_s", Median(makespan_ms) / 1000.0, "s");
  PutSim(out, "publish_tx_per_cluster",
         Ratio(static_cast<double>(publish_tx), static_cast<double>(clusters)), "count");
  PutSim(out, "query_latency_p50_ms", Percentile(pooled.latency_ms, 0.50), "ms");
  PutSim(out, "query_latency_p99_ms", Percentile(pooled.latency_ms, 0.99), "ms");
  PutSim(out, "query_tx_per_query", Ratio(static_cast<double>(pooled.tx), total), "count");
  PutSim(out, "range_recall", range_recall, "ratio");
  PutSim(out, "knn_recall", Ratio(pooled.knn_recall_sum, pooled.knn_ok), "ratio");
  // A closed loop has no offered-rate ladder: its one client is the only
  // rung, and both figures are its answered queries per simulated second.
  PutSim(out, "goodput_qps", Ratio(pooled.answered, sim_s), "1/s");
  PutSim(out, "sustainable_qps", Ratio(pooled.answered, sim_s), "1/s");
  PutSim(out, "answered_frac", Ratio(pooled.answered, total), "ratio");
  Put(out.sim, "inputs_digest", static_cast<double>(digest.value() >> 12), "count");
  std::printf("instances: %d; sim latency samples: %zu (of %d queries)\n", instances,
              pooled.latency_ms.size(), total);
  return out;
}

// Sums the instances' ladders rung by rung.
LadderSim PoolLadders(const std::vector<LadderSim>& sims) {
  LadderSim P = sims.front();
  std::vector<double> makespans{P.publish_makespan_ms};
  for (size_t i = 1; i < sims.size(); ++i) {
    const LadderSim& L = sims[i];
    for (size_t r = 0; r < P.rungs.size(); ++r) {
      RungSim& R = P.rungs[r];
      const RungSim& S = L.rungs[r];
      AddStats(R.totals, S.totals);
      R.answered += S.answered;
      R.t2a_ms.insert(R.t2a_ms.end(), S.t2a_ms.begin(), S.t2a_ms.end());
      R.epoch_bumps += S.epoch_bumps;
      R.shortcut_hits += S.shortcut_hits;
      R.shortcut_stale += S.shortcut_stale;
      R.end_backlog_ms = std::max(R.end_backlog_ms, S.end_backlog_ms);
    }
    P.serve_tx += L.serve_tx;
    P.completed += L.completed;
    P.range_recall_sum += L.range_recall_sum;
    P.range_n += L.range_n;
    P.knn_recall_sum += L.knn_recall_sum;
    P.knn_n += L.knn_n;
    P.precision_ok = P.precision_ok && L.precision_ok;
    P.accounting_ok = P.accounting_ok && L.accounting_ok;
    P.write_errors += L.write_errors;
    P.writes += L.writes;
    P.publish_tx += L.publish_tx;
    P.clusters += L.clusters;
    makespans.push_back(L.publish_makespan_ms);
  }
  for (RungSim& R : P.rungs) {
    std::sort(R.t2a_ms.begin(), R.t2a_ms.end());
    R.miss_frac = Ratio(static_cast<double>(R.totals.offered - R.totals.deadline_met),
                        static_cast<double>(R.totals.offered));
  }
  P.publish_makespan_ms = Median(makespans);
  return P;
}

struct ServeInstance {
  uint64_t seed = 0;
  Inputs in;
  std::vector<int> centers;
  std::vector<serve::QueryTemplate> templates;
  double inputs_ms = 0.0;
};

ServeInstance MakeServeInstance(const Config& c, uint64_t seed) {
  ServeInstance s;
  s.seed = seed;
  const double start = NowMs();
  s.in = MakeInputs(c, seed);
  s.inputs_ms = NowMs() - start;
  const core::FlatIndex oracle(s.in.dataset);
  s.templates = MakeTemplates(c, s.in, seed, oracle, &s.centers);
  return s;
}

// Per-layer metrics of serve instance 0 (see TraceClosedLoop).
void TraceServe(const Config& c, const Args& args, const ServeInstance& inst,
                const LadderSim& untraced_sim, double untraced_scope_ms, Metrics& m) {
  Ledger ledger(true);
  obs::MetricsRegistry::Global().Reset();
  std::vector<double> setup_ms;
  std::vector<double> wall_ms;
  const double start = NowMs();
  const LadderSim T = RunLadder(c, inst.in, inst.seed, args.threads, inst.templates, ledger,
                                &setup_ms, 0.0, &wall_ms);
  const double scope_ms = NowMs() - start;
  const Registry reg{obs::MetricsRegistry::Global().Snapshot()};
  if (!SameOutcome(T, untraced_sim)) Fail("traced pass diverged from the untraced one");

  PutLayerCommon(m, ledger, reg);
  Put(m, "query.contact_yield",
      Ratio(static_cast<double>(T.yielded), static_cast<double>(T.contacted)), "ratio");
  PutChannelLayers(m, T.channel, T.mac, T.route, T.backbone);
  RungSim sum;
  for (const RungSim& r : T.rungs) {
    sum.totals.cache_hits += r.totals.cache_hits;
    sum.totals.admitted += r.totals.admitted;
    sum.totals.shed_tx_backlog += r.totals.shed_tx_backlog;
    sum.totals.shed_dispatch_lag += r.totals.shed_dispatch_lag;
    sum.shortcut_hits += r.shortcut_hits;
    sum.shortcut_stale += r.shortcut_stale;
    sum.epoch_bumps += r.epoch_bumps;
  }
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  Put(m, "serve.cache.hit_ratio", Ratio(d(sum.totals.cache_hits), d(sum.totals.admitted)),
      "ratio");
  Put(m, "serve.shortcut.hit_ratio",
      Ratio(d(sum.shortcut_hits), d(sum.shortcut_hits + sum.shortcut_stale)), "ratio");
  Put(m, "serve.shed.tx_backlog", d(sum.totals.shed_tx_backlog), "count");
  Put(m, "serve.shed.dispatch_lag", d(sum.totals.shed_dispatch_lag), "count");
  Put(m, "serve.epoch_bumps", d(sum.epoch_bumps), "count");
  Put(m, "wall.unattributed_ms", scope_ms - ledger.attributed_ms(), "ms");
  Put(m, "obs.trace_overhead_frac", scope_ms / untraced_scope_ms - 1.0, "ratio");

  Ledger quiet(false);
  const std::unique_ptr<Bed> bed = Setup(c, inst.in, inst.seed, args.threads, quiet);
  std::vector<std::pair<int, double>> ranges;
  for (size_t i = 0; i < inst.templates.size(); ++i) {
    if (!inst.templates[i].knn) ranges.emplace_back(inst.centers[i], inst.templates[i].epsilon);
  }
  PutReplays(m, *bed->network, inst.in, MakeOptions(c, inst.seed, args.threads), c.peers,
             inst.seed, ranges);
}

// serve_manet. A traced run covers instance 0 only.
Outcome RunServe(const Config& c, const Args& args) {
  Outcome out;
  Ledger untraced(false);
  const int instances = args.trace ? 1 : c.instances;
  std::vector<ServeInstance> insts;
  std::vector<LadderSim> sims;
  Digest digest;
  std::vector<double> setup_ms;
  std::vector<double> wall_ms;
  const double run_start = NowMs();
  double untraced_scope_ms = 0.0;
  for (int i = 0; i < instances; ++i) {
    insts.push_back(MakeServeInstance(c, InstanceSeed(args.seed, i)));
    const ServeInstance& inst = insts.back();
    AddInputs(digest, inst.in, MakeOptions(c, inst.seed, args.threads));
    for (const serve::QueryTemplate& t : inst.templates) {
      digest.Add(t.center.data(), t.center.size() * sizeof(double));
      digest.AddValue(t.epsilon);
    }
    const double start = NowMs();
    sims.push_back(RunLadder(c, inst.in, inst.seed, args.threads, inst.templates, untraced,
                             &setup_ms, inst.inputs_ms, &wall_ms));
    untraced_scope_ms = NowMs() - start;
  }
  if (!args.trace) {
    // Repeat ladders while the run's seconds last (host samples); each must
    // reproduce its instance's first outcome exactly.
    for (int i = 0; NowMs() < run_start + args.seconds * 1000.0; i = (i + 1) % instances) {
      const ServeInstance& inst = insts[static_cast<size_t>(i)];
      const LadderSim again = RunLadder(c, inst.in, inst.seed, args.threads, inst.templates,
                                        untraced, &setup_ms, inst.inputs_ms, &wall_ms);
      if (!SameOutcome(again, sims[static_cast<size_t>(i)])) {
        Fail("a repeated ladder pass diverged from the first");
      }
    }
  }
  const LadderSim L = PoolLadders(sims);

  uint64_t offered = 0;
  uint64_t answered = 0;
  uint64_t errors = 0;
  for (const RungSim& r : L.rungs) {
    offered += r.totals.offered;
    answered += r.answered;
    errors += r.totals.failed;
  }
  out.attempted = offered + L.writes;
  out.failed = errors + L.write_errors;
  if (out.failed > 0) out.violations.push_back("queries or writes returned errors");
  if (!L.precision_ok) out.violations.push_back("range precision below 1");
  if (!L.accounting_ok) out.violations.push_back("serve accounting does not close");
  if (!args.trace) {
    Put(out.e2e, "setup_s", Median(setup_ms) / 1000.0, "s");
    PutHostQuery(out, wall_ms);
    Put(out.e2e, "peak_rss_mb", PeakRssMb(), "MB");
  }

  // Deployments differ widely (one hot relay can put a 16-peer field past
  // its knee at the base rung), so per-deployment latencies and knees are
  // reported as their median over instances; counts, goodput and recall are
  // pooled.
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> sustainable;
  for (const LadderSim& sim : sims) {
    p50.push_back(Percentile(sim.rungs.front().t2a_ms, 0.50));
    p99.push_back(Percentile(sim.rungs.front().t2a_ms, 0.99));
    sustainable.push_back(SustainableQps(sim.rungs));
  }
  PutSim(out, "publish_makespan_s", L.publish_makespan_ms / 1000.0, "s");
  PutSim(out, "publish_tx_per_cluster",
         Ratio(static_cast<double>(L.publish_tx), static_cast<double>(L.clusters)), "count");
  // Time-to-answer on the base rung: the stack's latency below the knee.
  PutSim(out, "query_latency_p50_ms", Median(p50), "ms");
  PutSim(out, "query_latency_p99_ms", Median(p99), "ms");
  PutSim(out, "query_tx_per_query",
         Ratio(static_cast<double>(L.serve_tx), static_cast<double>(L.completed)), "count");
  PutSim(out, "range_recall", Ratio(L.range_recall_sum, L.range_n), "ratio");
  PutSim(out, "knn_recall", Ratio(L.knn_recall_sum, L.knn_n), "ratio");
  PutSim(out, "goodput_qps",
         static_cast<double>(L.rungs.back().totals.deadline_met) * 1000.0 /
             (c.rung_ms * instances),
         "1/s");
  PutSim(out, "sustainable_qps", Median(sustainable), "1/s");
  PutSim(out, "answered_frac",
         Ratio(static_cast<double>(answered), static_cast<double>(offered)), "ratio");
  Put(out.sim, "inputs_digest", static_cast<double>(digest.value() >> 12), "count");
  for (const RungSim& r : L.rungs) {
    std::printf("rung %.2f qps: offered %llu shed %llu completed %llu met %llu miss %.4f "
                "cache hits %llu epoch bumps %llu max end backlog %.1f ms\n",
                r.offered_qps, static_cast<unsigned long long>(r.totals.offered),
                static_cast<unsigned long long>(r.totals.shed),
                static_cast<unsigned long long>(r.totals.completed),
                static_cast<unsigned long long>(r.totals.deadline_met), r.miss_frac,
                static_cast<unsigned long long>(r.totals.cache_hits),
                static_cast<unsigned long long>(r.epoch_bumps), r.end_backlog_ms);
  }
  size_t fewest_samples = SIZE_MAX;
  for (const LadderSim& sim : sims) {
    fewest_samples = std::min(fewest_samples, sim.rungs.front().t2a_ms.size());
  }
  std::printf("instances: %d; base-rung latency samples per instance: >= %zu\n", instances,
              fewest_samples);
  if (args.trace) TraceServe(c, args, insts.front(), sims.front(), untraced_scope_ms, out.layers);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Config config = MakeConfig(args.workload, args.tiny);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d size=%s threads=%d nproc=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? "tiny" : "full", args.threads,
              std::thread::hardware_concurrency());
  std::fflush(stdout);
  const Outcome out =
      config.kind == Kind::kServe ? RunServe(config, args) : RunClosedLoop(config, args);
  std::printf("SIM %s\n", Json(out.sim).c_str());
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "perf_driver: correctness gate failed: %s\n", v.c_str());
  }
  const bool correct = out.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              Json(args.trace ? out.layers : out.e2e).c_str());
  return correct ? 0 : 1;
}
