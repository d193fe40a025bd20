// Microbenchmarks (google-benchmark) of the computational kernels behind
// Hyper-M: the Haar pyramid, k-means, the sphere-intersection geometry of
// Eqs. 5-8, CAN greedy routing and zone flooding, and peer-local range
// retrieval. These quantify the "could be done offline / negligible" claims
// the paper makes about local computation. BM_ScoreLevels times one query's
// Eq. 1 scoring pass. BM_DomainDigest* time the supernode
// backbone's per-tick domain digest maintenance; BM_TransportSendHop times
// the transport every overlay message goes through.
//
// With --json=<path> the binary additionally runs one small instrumented
// end-to-end sample (Build + range + k-NN query) and writes the global
// metrics/span report — the bench-smoke ctest fixture validates that file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "backbone/digest.h"
#include "bench/bench_util.h"
#include "can/can_overlay.h"
#include "cluster/kmeans.h"
#include "common/rng.h"
#include "data/markov_generator.h"
#include "geom/radius_estimator.h"
#include "geom/sphere_volume.h"
#include "hyperm/peer.h"
#include "hyperm/score.h"
#include "net/fault_plan.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "vec/matrix.h"
#include "vec/vector.h"
#include "wavelet/haar.h"
#include "wavelet/transform.h"

namespace hyperm {
namespace {

Vector RandomVector(size_t dim, Rng& rng) {
  Vector x(dim);
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  return x;
}

void BM_HaarDecompose(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Vector x = RandomVector(dim, rng);
  for (auto _ : state) {
    Result<wavelet::Pyramid> p = wavelet::Decompose(x);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HaarDecompose)->Arg(64)->Arg(512)->Arg(4096);

void BM_HaarRoundTrip(benchmark::State& state) {
  Rng rng(2);
  const Vector x = RandomVector(512, rng);
  for (auto _ : state) {
    Result<wavelet::Pyramid> p = wavelet::Decompose(x);
    Vector back = wavelet::Reconstruct(*p);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_HaarRoundTrip);

void BM_WaveletFamilies(benchmark::State& state) {
  const auto kind = static_cast<wavelet::WaveletKind>(state.range(0));
  Rng rng(2);
  const Vector x = RandomVector(512, rng);
  for (auto _ : state) {
    Result<wavelet::Pyramid> p = wavelet::DecomposeWith(kind, x);
    benchmark::DoNotOptimize(p);
  }
  state.SetLabel(wavelet::WaveletKindName(kind));
}
BENCHMARK(BM_WaveletFamilies)
    ->Arg(static_cast<int>(wavelet::WaveletKind::kHaarAveraging))
    ->Arg(static_cast<int>(wavelet::WaveletKind::kHaarOrthonormal))
    ->Arg(static_cast<int>(wavelet::WaveletKind::kDaubechies4));

// Args: {n, dim, k, markov}. markov 0 is uniform random points in
// [-1, 1]^dim; 1 is the Markov dataset (8 families) that data::AssignByInterest
// clusters, so {20000, 64, 64, 1} and {5000, 512, 8, 1} are the interest
// k-means of perfbench's publish_1k and query_paper, and {20, 4, 10, 1} and
// {50, 4, 10, 1} the size of Build's per-peer, per-level k-means there.
std::vector<Vector> KMeansInput(const benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  Rng data_rng(3);
  if (state.range(3) == 1) {
    data::MarkovOptions options;
    options.count = n;
    options.dim = dim;
    options.num_families = 8;
    return std::move(data::GenerateMarkov(options, data_rng)).value().items;
  }
  std::vector<Vector> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) points.push_back(RandomVector(static_cast<size_t>(dim), data_rng));
  return points;
}

void RunKMeansBench(benchmark::State& state, bool pruned) {
  const std::vector<Vector> points = KMeansInput(state);
  cluster::KMeansOptions options;
  options.k = static_cast<int>(state.range(2));
  options.pruned = pruned;
  for (auto _ : state) {
    Rng rng(4);
    Result<cluster::KMeansResult> r = cluster::KMeans(points, options, rng);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void KMeansArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "dim", "k", "markov"});
  b->Args({200, 4, 10, 0})->Args({1000, 4, 10, 0})->Args({1000, 64, 10, 0});
  b->Args({20000, 64, 64, 1})->Args({5000, 512, 8, 1});
  b->Args({20, 4, 10, 1})->Args({50, 4, 10, 1});
  b->Unit(benchmark::kMicrosecond);
}

// The exact bounded kernel (the default, options.pruned = true).
void BM_KMeans(benchmark::State& state) { RunKMeansBench(state, /*pruned=*/true); }
BENCHMARK(BM_KMeans)->Apply(KMeansArgs);

// Reference full-scan kernel (options.pruned = false); the ratio against
// BM_KMeans on the same Args is the bounded kernel's speedup.
void BM_KMeansNaive(benchmark::State& state) { RunKMeansBench(state, /*pruned=*/false); }
BENCHMARK(BM_KMeansNaive)->Apply(KMeansArgs);

// AoS reference for the distance scan: one vec::SquaredDistance call per
// heap-allocated row of a std::vector<Vector>. The ratio against
// BM_SquaredDistanceBatch on the same Args is the SoA-layout speedup that
// peer scoring / k-means assignment / the flat oracle inherited.
void BM_SquaredDistanceAoS(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  Rng rng(10);
  std::vector<Vector> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rows.push_back(RandomVector(dim, rng));
  const Vector query = RandomVector(dim, rng);
  std::vector<double> out(rows.size());
  for (auto _ : state) {
    for (size_t r = 0; r < rows.size(); ++r) {
      out[r] = vec::SquaredDistance(rows[r], query);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n *
                          static_cast<int64_t>(dim * sizeof(double)));
}
BENCHMARK(BM_SquaredDistanceAoS)->Args({1000, 64})->Args({1000, 512});

// SoA batch kernel over the same values in one contiguous buffer. Results
// are bit-identical to the AoS loop (see vec/matrix.h's contract).
void BM_SquaredDistanceBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const size_t dim = static_cast<size_t>(state.range(1));
  Rng rng(10);
  std::vector<Vector> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rows.push_back(RandomVector(dim, rng));
  const vec::Matrix m = vec::Matrix::FromRows(rows);
  const Vector query = RandomVector(dim, rng);
  std::vector<double> out(m.rows());
  for (auto _ : state) {
    vec::SquaredDistanceBatch(m, query, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n *
                          static_cast<int64_t>(dim * sizeof(double)));
}
BENCHMARK(BM_SquaredDistanceBatch)->Args({1000, 64})->Args({1000, 512});

// Rows for the peer-local scans: `markov` selects the Markov traces the
// perfbench workloads store (8 families), else white noise in [-1, 1]^dim.
// White noise spreads a distance evenly over all wavelet levels, so the
// coarse filter prunes least there; Markov traces keep most of it in the
// coarse levels.
std::vector<Vector> PeerRows(size_t rows, size_t dim, bool markov, uint64_t seed) {
  Rng rng(seed);
  if (markov) {
    data::MarkovOptions options;
    options.count = static_cast<int>(rows);
    options.dim = static_cast<int>(dim);
    options.num_families = 8;
    return std::move(data::GenerateMarkov(options, rng)).value().items;
  }
  std::vector<Vector> out;
  for (size_t i = 0; i < rows; ++i) out.push_back(RandomVector(dim, rng));
  return out;
}

// Peer-local range retrieval (Peer::RangeSearch: the coarse Haar filter,
// then the bounded scan over the kept rows). Args: {dim, near, markov, rows}.
// A near query sits on a stored row with the median row distance as radius,
// so half the rows match and are summed in full (on white noise the filter
// can only cost time there); a far query is the same ball shifted by 1 in
// every coordinate, so no row matches. Both peer scans take the query's
// CoarseQuery from outside the loop, as a query computes it once for every
// peer it contacts.
void BM_PeerRangeScan(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const bool near = state.range(1) != 0;
  const int rows = static_cast<int>(state.range(3));
  const std::vector<Vector> data = PeerRows(static_cast<size_t>(rows), dim,
                                            state.range(2) != 0, 12);
  core::Peer peer(0);
  for (int i = 0; i < rows; ++i) peer.AddItem(i, data[static_cast<size_t>(i)]);
  std::vector<double> dist;
  for (const Vector& row : data) dist.push_back(vec::Distance(row, data.front()));
  std::nth_element(dist.begin(), dist.begin() + rows / 2, dist.end());
  const double epsilon = dist[static_cast<size_t>(rows / 2)];
  Vector query = data.front();
  if (!near) {
    for (double& x : query) x += 1.0;
  }
  const core::CoarseQuery coarse(query);
  for (auto _ : state) {
    std::vector<core::ItemId> hits = peer.RangeSearch(query, coarse, epsilon);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PeerRangeScan)
    ->Args({64, 1, 0, 256})
    ->Args({64, 0, 0, 256})
    ->Args({512, 1, 0, 256})
    ->Args({512, 0, 0, 256})
    ->Args({512, 1, 1, 50})
    ->Args({512, 0, 1, 50})
    ->Args({64, 1, 1, 20})
    ->Args({64, 0, 1, 20});

// Peer-local k-NN retrieval (Peer::NearestItemsScored: rows refined in
// ascending coarse-bound order until the bound clears the count-th best).
// Args: {dim, markov, rows, count}; the query is a fresh row of the same
// kind. {512, 1, 50, 5} and {64, 1, 20, 3} are query_paper's and
// publish_1k's store sizes at a typical per-peer request.
void BM_PeerKnnScan(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const int rows = static_cast<int>(state.range(2));
  const int count = static_cast<int>(state.range(3));
  const std::vector<Vector> data = PeerRows(static_cast<size_t>(rows) + 1, dim,
                                            state.range(1) != 0, 15);
  core::Peer peer(0);
  for (int i = 0; i < rows; ++i) peer.AddItem(i, data[static_cast<size_t>(i)]);
  const Vector& query = data.back();
  const core::CoarseQuery coarse(query);
  for (auto _ : state) {
    std::vector<core::ScoredItem> nearest = peer.NearestItemsScored(query, coarse, count);
    benchmark::DoNotOptimize(nearest.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PeerKnnScan)
    ->Args({512, 1, 50, 5})
    ->Args({512, 0, 50, 5})
    ->Args({64, 1, 20, 3})
    ->Args({64, 0, 20, 3})
    ->Args({64, 0, 256, 10});

// A point of the CAN key space [0,1)^dim.
Vector RandomKey(size_t dim, Rng& rng) {
  Vector key(dim);
  for (double& v : key) v = rng.NextDouble();
  return key;
}

// Publishes 4000 cluster spheres (radius up to 0.15) into `can` from node 0,
// replicated into every zone they overlap; returns them in id order.
std::vector<overlay::PublishedCluster> PublishRandomClusters(can::CanOverlay* can,
                                                             int nodes, Rng& rng) {
  std::vector<overlay::PublishedCluster> clusters;
  for (uint64_t id = 1; id <= 4000; ++id) {
    overlay::PublishedCluster c;
    c.sphere = geom::Sphere{RandomKey(can->dim(), rng), rng.Uniform(0.0, 0.15)};
    c.owner_peer = static_cast<int>(id % static_cast<uint64_t>(nodes));
    c.items = 1;
    c.cluster_id = id;
    if (!can->Insert(c, 0).ok()) std::abort();
    clusters.push_back(std::move(c));
  }
  return clusters;
}

// One CAN zone flood: a range query entered at the owner of its center (so
// no routing walk), over replicated cluster spheres. Args: {dim, nodes};
// {1, 512} is a 1-D level like publish_1k's, where each sphere is copied
// into the most zones.
void BM_CanFlood(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const int nodes = static_cast<int>(state.range(1));
  sim::NetworkStats stats;
  Rng rng(13);
  auto can = can::CanOverlay::Build(dim, nodes, &stats, rng).value();
  PublishRandomClusters(can.get(), nodes, rng);
  Rng query_rng(14);
  size_t matches = 0;
  for (auto _ : state) {
    const geom::Sphere query{RandomKey(dim, query_rng), 0.1};
    const overlay::NodeId entry = can->OwnerOf(query.center);
    Result<overlay::RangeQueryResult> r = can->RangeQuery(query, entry, entry);
    matches += r.value().matches.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["matches_per_flood"] = benchmark::Counter(
      static_cast<double>(matches), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CanFlood)->Args({1, 512})->Args({2, 256})->Args({4, 256});

// One CanOverlay::Insert on BM_CanFlood's overlay: the express-contact route
// from node 0 to the centroid owner plus the replication flood. Each
// iteration re-inserts one already-stored cluster id (the soft-state refresh
// path, which renews its copies' expiry in place), so storage stays flat.
// Args: {dim, nodes}.
void BM_CanInsert(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const int nodes = static_cast<int>(state.range(1));
  sim::NetworkStats stats;
  Rng rng(13);
  auto can = can::CanOverlay::Build(dim, nodes, &stats, rng).value();
  const std::vector<overlay::PublishedCluster> clusters =
      PublishRandomClusters(can.get(), nodes, rng);
  size_t next = 0;
  int64_t replicas = 0;
  for (auto _ : state) {
    Result<overlay::InsertReceipt> r = can->Insert(clusters[next], 0);
    replicas += r.value().replicas;
    benchmark::DoNotOptimize(r);
    next = (next + 1) % clusters.size();
  }
  state.counters["replicas_per_insert"] = benchmark::Counter(
      static_cast<double>(replicas), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CanInsert)->Args({2, 256})->Args({4, 256});

// One UnreliableTransport::SendHop on the free channel (no radio channel
// installed): the per-message cost every overlay hop and retrieve exchange
// pays. Args: {loss_percent}. At 0 every message is delivered on its first
// attempt, as in the paper configuration; at 20 the time includes retries,
// and tx_per_hop counts the transmissions each message took.
void BM_TransportSendHop(benchmark::State& state) {
  constexpr int kPeers = 16;
  net::NetOptions options;
  options.faults.loss_rate = static_cast<double>(state.range(0)) / 100.0;
  sim::Simulator sim;
  sim::NetworkStats stats;
  net::FaultState faults(kPeers, options.faults);
  net::UnreliableTransport transport(&sim, &stats, &faults, options);
  int src = 0;
  for (auto _ : state) {
    const net::HopResult r = transport.SendHop({net::MessageType::kQueryFlood, src,
                                                (src + 1) % kPeers, 64,
                                                sim::TrafficClass::kQuery});
    benchmark::DoNotOptimize(r);
    src = (src + 1) % kPeers;
  }
  state.counters["tx_per_hop"] =
      benchmark::Counter(static_cast<double>(transport.counters().messages_sent),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TransportSendHop)->Arg(0)->Arg(20);

// Domain digest maintenance at serve_manet's shape: four wavelet levels of
// dims {1, 1, 2, 4}, 2048-bit digests with 24 cells per axis, `members`
// domain members with 10 cluster spheres per level each. Rebuild hashes every member's spheres into the level digests,
// as a maintenance tick did before member digests existed; Merge ORs the
// members' prebuilt digests into the cleared level digests, as it does now.
// Both end with identical digests. Args: {members}.
struct DigestDomain {
  static constexpr int kDims[4] = {1, 1, 2, 4};
  static constexpr int kSpheresPerLevel = 10;
  static constexpr backbone::DigestOptions kOptions{.cells_per_axis = 24};

  explicit DigestDomain(int members) {
    Rng rng(15);
    spheres.resize(static_cast<size_t>(members));
    member_digests.resize(static_cast<size_t>(members));
    for (int m = 0; m < members; ++m) {
      for (int dim : kDims) {
        std::vector<geom::Sphere> level;
        backbone::SphereDigest digest(dim, kOptions);
        for (int i = 0; i < kSpheresPerLevel; ++i) {
          Vector center(static_cast<size_t>(dim));
          for (double& v : center) v = rng.NextDouble();
          level.push_back(geom::Sphere{center, rng.Uniform(0.0, 0.1)});
          digest.InsertSphere(level.back());
        }
        spheres[m].push_back(std::move(level));
        member_digests[m].push_back(std::move(digest));
      }
    }
    for (int dim : kDims) domain.emplace_back(dim, kOptions);
  }

  std::vector<std::vector<std::vector<geom::Sphere>>> spheres;  // [member][level]
  std::vector<std::vector<backbone::SphereDigest>> member_digests;
  std::vector<backbone::SphereDigest> domain;
};

void BM_DomainDigestRebuild(benchmark::State& state) {
  DigestDomain bed(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (backbone::SphereDigest& level : bed.domain) level.Clear();
    for (const auto& member : bed.spheres) {
      for (size_t level = 0; level < member.size(); ++level) {
        for (const geom::Sphere& sphere : member[level]) {
          bed.domain[level].InsertSphere(sphere);
        }
      }
    }
    benchmark::DoNotOptimize(bed.domain.data());
  }
}
BENCHMARK(BM_DomainDigestRebuild)->Arg(4)->Arg(8);

void BM_DomainDigestMerge(benchmark::State& state) {
  DigestDomain bed(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (backbone::SphereDigest& level : bed.domain) level.Clear();
    for (const auto& member : bed.member_digests) {
      for (size_t level = 0; level < member.size(); ++level) {
        if (!bed.domain[level].Merge(member[level]).ok()) std::abort();
      }
    }
    benchmark::DoNotOptimize(bed.domain.data());
  }
}
BENCHMARK(BM_DomainDigestMerge)->Arg(4)->Arg(8);

// End-to-end Build at a fixed dataset, swept over the pool size. On a
// single-core host the >1-thread rows only measure coordination overhead;
// the ratio is meaningful on multi-core hardware.
void BM_BuildNetwork(benchmark::State& state) {
  const int num_threads = static_cast<int>(state.range(0));
  Rng setup_rng(8);
  data::MarkovOptions data_options;
  data_options.count = 400;
  data_options.dim = 64;
  data_options.num_families = 8;
  auto dataset = data::GenerateMarkov(data_options, setup_rng).value();
  data::AssignmentOptions assign_options;
  assign_options.num_peers = 16;
  assign_options.num_interest_classes = 8;
  assign_options.min_peers_per_class = 4;
  assign_options.max_peers_per_class = 6;
  auto assignment = data::AssignByInterest(dataset, assign_options, setup_rng).value();
  core::HyperMOptions options;
  options.num_threads = num_threads;
  for (auto _ : state) {
    Rng rng(9);
    Result<std::unique_ptr<core::HyperMNetwork>> net =
        core::HyperMNetwork::Build(dataset, assignment, options, rng);
    benchmark::DoNotOptimize(net);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildNetwork)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CapVolumeFraction(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  double alpha = 0.1;
  for (auto _ : state) {
    alpha = alpha > 3.0 ? 0.1 : alpha + 0.001;
    benchmark::DoNotOptimize(geom::CapVolumeFraction(d, alpha));
  }
}
BENCHMARK(BM_CapVolumeFraction)->Arg(1)->Arg(2)->Arg(4)->Arg(16)->Arg(512);

// Args {d, thin}: thin = 0 sweeps the query center from the data sphere's
// center out past tangency (nested spheres, then lenses); thin = 1 keeps
// every lens within 1e-2 of tangency, where the d <= 4 caps take their
// series.
void BM_SphereIntersectionFraction(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool thin = state.range(1) != 0;
  double b = 0.0;
  double gap = 1e-2;
  for (auto _ : state) {
    if (thin) {
      gap = gap < 1e-8 ? 1e-2 : gap * 0.99;
      b = 2.5 - gap;
    } else {
      b = b > 2.4 ? 0.0 : b + 0.001;
    }
    benchmark::DoNotOptimize(geom::SphereIntersectionFraction(d, 1.0, 1.5, b));
  }
}
BENCHMARK(BM_SphereIntersectionFraction)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({2, 1})
    ->Args({4, 1});

// One Eq. 8 inversion over the summaries a k-NN level probe discovers:
// args {views, d, k}. ~190 views is query_paper's shape, ~1,570
// publish_1k's. Centroids lie in the unit key cube around the query, with
// ~15% single-item point clusters; the `sweeps` counter is ExpectedItems
// sweeps per solve.
void BM_SolveRadiusForCount(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const double k = static_cast<double>(state.range(2));
  Rng rng(5);
  std::vector<double> query(static_cast<size_t>(d));
  for (double& q : query) q = rng.Uniform(0.0, 1.0);
  std::vector<geom::ClusterView> clusters;
  for (int i = 0; i < n; ++i) {
    double dist2 = 0.0;
    for (double q : query) {
      const double x = rng.Uniform(0.0, 1.0) - q;
      dist2 += x * x;
    }
    const bool point = rng.Uniform(0.0, 1.0) < 0.15;
    clusters.push_back(geom::ClusterView{
        point ? 0.0 : rng.Uniform(0.005, 0.2), std::sqrt(dist2),
        point ? 1 : static_cast<int>(rng.UniformInt(1, 40))});
  }
  geom::RadiusSolveStats stats;
  for (auto _ : state) {
    Result<double> eps = geom::SolveRadiusForCount(d, clusters, k, {}, &stats);
    benchmark::DoNotOptimize(eps);
  }
  state.counters["sweeps"] = stats.sweeps;
}
BENCHMARK(BM_SolveRadiusForCount)->Args({190, 4, 10})->Args({1570, 4, 10});

// One query's scoring pass (ScoreLevels) over a match set shaped like
// query_paper's range queries: four levels of dims 1, 1, 2 and 4, ~300
// records each from 100 owners. Owners 0-49 have records at every level;
// each of owners 50-99 misses one level, so about half the owners survive
// min aggregation. Arg: 0 = kMin (survivors only), 1 = kSum (every record).
// The `evaluations` counter is Eq. 1 evaluations per pass.
void BM_ScoreLevels(benchmark::State& state) {
  const core::ScorePolicy policy =
      state.range(0) == 0 ? core::ScorePolicy::kMin : core::ScorePolicy::kSum;
  Rng rng(7);
  std::vector<core::LevelMatches> levels;
  uint64_t next_id = 1;
  for (int dim : {1, 1, 2, 4}) {
    const int layer = static_cast<int>(levels.size());
    core::LevelMatches level{dim, 0.1, {}};
    while (level.matches.size() < 300) {
      const int owner = static_cast<int>(rng.UniformInt(0, 99));
      if (owner >= 50 && owner % 4 == layer) continue;
      const double radius = rng.Uniform(0.02, 0.2);
      level.matches.push_back(overlay::ClusterMatch{
          next_id++, owner, static_cast<int>(rng.UniformInt(1, 20)), radius,
          rng.Uniform(0.0, radius + level.query_radius)});
    }
    levels.push_back(std::move(level));
  }
  std::vector<const core::LevelMatches*> pointers;
  for (const core::LevelMatches& level : levels) pointers.push_back(&level);
  int64_t evaluations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ScoreLevels(pointers, policy, &evaluations));
  }
  state.counters["evaluations"] =
      benchmark::Counter(static_cast<double>(evaluations),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ScoreLevels)->Arg(0)->Arg(1);

// One greedy query walk from node 0 to a random key's owner (no transport):
// the routing stage of every CAN range query.
void BM_CanRoute(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const int nodes = static_cast<int>(state.range(1));
  sim::NetworkStats stats;
  Rng rng(6);
  auto can = can::CanOverlay::Build(dim, nodes, &stats, rng).value();
  Rng query_rng(7);
  for (auto _ : state) {
    Vector key(dim);
    for (double& v : key) v = query_rng.NextDouble();
    Result<can::RouteResult> r =
        can->Route(key, 0, sim::TrafficClass::kQuery, 64);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CanRoute)
    ->Args({2, 100})
    ->Args({4, 100})
    ->Args({512, 100})
    ->Args({2, 256})
    ->Args({4, 256});

// Self-timed AoS-vs-SoA kernel sample for the exported report: per-row wall
// gauges (skipped by baseline diffs) plus the speedup ratio, which IS
// baseline-checked — both loops run in-process seconds apart, so the ratio
// is robust to machine load where absolute timings are not. A ratio
// collapsing towards 1.0 means the batch kernel lost its layout win.
void RunKernelBaselineSample() {
  constexpr int kRows = 1000;
  constexpr size_t kDim = 512;
  constexpr int kReps = 10;
  Rng rng(10);
  std::vector<Vector> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) rows.push_back(RandomVector(kDim, rng));
  const vec::Matrix m = vec::Matrix::FromRows(rows);
  const Vector query = RandomVector(kDim, rng);
  std::vector<double> out(rows.size());
  double checksum = 0.0;

  double aos_best_ns = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::PhaseTimer timer;
    for (size_t r = 0; r < rows.size(); ++r) {
      out[r] = vec::SquaredDistance(rows[r], query);
    }
    const double ns = timer.ElapsedMs() * 1e6;
    if (rep == 0 || ns < aos_best_ns) aos_best_ns = ns;
    checksum += out.front() + out.back();
  }
  double soa_best_ns = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::PhaseTimer timer;
    vec::SquaredDistanceBatch(m, query, out.data());
    const double ns = timer.ElapsedMs() * 1e6;
    if (rep == 0 || ns < soa_best_ns) soa_best_ns = ns;
    checksum += out.front() + out.back();
  }
  if (checksum < 0.0) std::abort();  // keep the loops observable

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("kernels.aos_dim512_wall_ns_per_row").Set(aos_best_ns / kRows);
  reg.GetGauge("kernels.soa_dim512_wall_ns_per_row").Set(soa_best_ns / kRows);
  reg.GetGauge("kernels.soa_speedup_dim512")
      .Set(soa_best_ns > 0.0 ? aos_best_ns / soa_best_ns : 0.0);
}

// One tiny instrumented pipeline pass (Build + range query + k-NN query) so
// the exported report always carries the Build/query span tree and the full
// metric set, independent of which BM_* cases ran.
void RunInstrumentedSample() {
  obs::MetricsRegistry::Global().Reset();
  obs::Tracer::Global().Reset();
  core::HyperMOptions options;
  options.num_layers = 3;
  options.clusters_per_peer = 4;
  auto bed = bench::BuildEffectivenessBed(/*paper_scale=*/false, options,
                                          /*seed=*/606, /*num_objects_override=*/40);
  const Vector& query = bed->dataset.items.front();
  Result<std::vector<core::ItemId>> range =
      bed->network->RangeQuery(query, /*epsilon=*/0.25, /*querying_peer=*/0);
  if (!range.ok()) {
    std::fprintf(stderr, "sample range query: %s\n", range.status().ToString().c_str());
    std::exit(1);
  }
  core::KnnOptions knn_options;
  Result<std::vector<core::ItemId>> knn =
      bed->network->KnnQuery(query, /*k=*/5, knn_options, /*querying_peer=*/1);
  if (!knn.ok()) {
    std::fprintf(stderr, "sample knn query: %s\n", knn.status().ToString().c_str());
    std::exit(1);
  }
}

}  // namespace
}  // namespace hyperm

int main(int argc, char** argv) {
  // Split off the hyperm flags (--json=, --paper) before google-benchmark
  // sees the command line; it rejects flags it does not recognize.
  const std::string json_path = hyperm::bench::JsonPath(argc, argv);
  std::vector<char*> bm_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0 || arg == "--paper") continue;
    bm_argv.push_back(argv[i]);
  }
  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) {
    hyperm::RunInstrumentedSample();  // resets the registry first
    hyperm::RunKernelBaselineSample();
    hyperm::bench::WriteBenchReport(argc, argv, "micro_kernels");
  }
  return 0;
}
