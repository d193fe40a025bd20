// Extension: physical MANET cost of overlay traffic.
//
// The paper counts overlay hops; in the motivating scenario every overlay
// hop is a multi-hop radio path across the room/train. CAN zone assignment
// is independent of geography, so overlay endpoints are uniform random node
// pairs and the expected physical multiplier is the mean pairwise hop count
// of the radio graph. This bench deploys both systems over the same physical
// field and reports physical transmissions, radio energy and dissemination
// makespan.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "data/markov_generator.h"
#include "data/peer_assignment.h"
#include "hyperm/baseline.h"
#include "hyperm/eval.h"
#include "hyperm/flat_index.h"
#include "hyperm/network.h"
#include "manet/topology.h"
#include "sim/dissemination.h"

using namespace hyperm;

int main(int argc, char** argv) {
  const bool paper = bench::PaperScale(argc, argv);
  const int nodes = 50;
  const int sweep_nodes = 16;  // Part-2 live-channel sweep scale
  const int items_per_node = paper ? 1000 : 200;
  bench::PrintHeader("Extension", "physical MANET cost of dissemination", paper);

  // Physical deployment: a 120 m hall, 35 m bluetooth-class range.
  Rng manet_rng(5);
  manet::TopologyOptions field;
  field.num_nodes = nodes;
  field.field_size_m = 120.0;
  field.radio_range_m = 35.0;
  Result<manet::ManetTopology> topology = manet::ManetTopology::Generate(field, manet_rng);
  if (!topology.ok()) {
    std::fprintf(stderr, "%s\n", topology.status().ToString().c_str());
    return 1;
  }
  const double multiplier = topology->MeanPairwiseHops();
  std::printf("field: %.0fx%.0f m, range %.0f m -> mean physical hops per overlay hop: %.2f\n\n",
              field.field_size_m, field.field_size_m, field.radio_range_m, multiplier);

  Rng data_rng(404);
  data::MarkovOptions data_options;
  data_options.count = nodes * items_per_node;
  data_options.dim = 512;
  data_options.num_families = 25;
  Result<data::Dataset> dataset = data::GenerateMarkov(data_options, data_rng);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  data::AssignmentOptions assign_options;
  assign_options.num_peers = nodes;
  Result<data::PeerAssignment> assignment =
      data::AssignByInterest(*dataset, assign_options, data_rng);
  if (!assignment.ok()) {
    std::fprintf(stderr, "%s\n", assignment.status().ToString().c_str());
    return 1;
  }

  // Hyper-M.
  Rng rng(42);
  core::HyperMOptions options;
  Result<std::unique_ptr<core::HyperMNetwork>> net =
      core::HyperMNetwork::Build(*dataset, *assignment, options, rng);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  const uint64_t hyperm_overlay_hops =
      (*net)->stats().hops(sim::TrafficClass::kInsert) +
      (*net)->stats().hops(sim::TrafficClass::kReplicate);
  const double hyperm_bytes_per_hop = sim::AverageInsertBytesPerHop((*net)->stats());

  // Per-item baseline.
  Rng baseline_rng(43);
  Result<std::unique_ptr<core::CanItemBaseline>> baseline =
      core::CanItemBaseline::Build(*dataset, *assignment, {}, baseline_rng);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 1;
  }
  const uint64_t baseline_overlay_hops =
      (*baseline)->stats().hops(sim::TrafficClass::kInsert);
  const double baseline_bytes_per_hop =
      sim::AverageInsertBytesPerHop((*baseline)->stats());

  const sim::RadioEnergyModel radio;
  auto report = [&](const char* name, uint64_t overlay_hops, double bytes_per_hop) {
    const double physical = static_cast<double>(overlay_hops) * multiplier;
    const double energy_mj = physical * radio.HopEnergyNanojoules(
                                            static_cast<uint64_t>(bytes_per_hop)) *
                             1e-6;
    // Makespan: physical transmissions split evenly across peers publishing
    // in parallel.
    std::vector<uint64_t> per_peer(
        static_cast<size_t>(nodes),
        static_cast<uint64_t>(physical / static_cast<double>(nodes)));
    const double makespan = sim::ParallelMakespanMs(per_peer, bytes_per_hop);
    std::printf("%-14s %16llu %18.0f %14.1f %14.1f\n", name,
                static_cast<unsigned long long>(overlay_hops), physical, energy_mj,
                makespan / 1000.0);
  };

  std::printf("%-14s %16s %18s %14s %14s\n", "system", "overlay hops",
              "physical tx", "energy (mJ)", "makespan (s)");
  report("Hyper-M", hyperm_overlay_hops, hyperm_bytes_per_hop);
  report("per-item CAN", baseline_overlay_hops, baseline_bytes_per_hop);

  std::printf("\nexpected shape: the physical multiplier scales both systems\n"
              "equally; Hyper-M's advantage compounds through its tiny summary\n"
              "messages (energy and makespan gaps exceed the hop gap)\n");

  // --- Part 2: mobility sweep over the live radio channel ------------------
  //
  // The static analysis above converts overlay hops with a fixed multiplier;
  // the channel subsystem simulates the radio for real. Sweep node speed x
  // offered load over a deployed Hyper-M instance and report recall, mean
  // query latency, ARQ retries and radio energy (methodology: EXPERIMENTS.md).
  std::printf("\nmobility sweep (live radio channel, %d peers):\n", sweep_nodes);
  std::printf("%-12s %-8s %10s %14s %10s %14s %12s\n", "speed (m/s)", "load",
              "recall", "latency (ms)", "retries", "energy (mJ)", "disc. ticks");
  const double speeds[] = {0.0, 5.0, 25.0};
  const int loads[] = {1, 4};
  for (double speed : speeds) {
    for (int load : loads) {
      Rng sweep_rng(4242);
      data::MarkovOptions sweep_data_options;
      sweep_data_options.count = sweep_nodes * (paper ? 100 : 25);
      sweep_data_options.dim = 32;
      sweep_data_options.num_families = 8;
      Result<data::Dataset> sweep_dataset =
          data::GenerateMarkov(sweep_data_options, sweep_rng);
      if (!sweep_dataset.ok()) {
        std::fprintf(stderr, "%s\n", sweep_dataset.status().ToString().c_str());
        return 1;
      }
      data::AssignmentOptions sweep_assign;
      sweep_assign.num_peers = sweep_nodes;
      sweep_assign.num_interest_classes = 8;
      sweep_assign.min_peers_per_class = 4;
      sweep_assign.max_peers_per_class = 6;
      Result<data::PeerAssignment> sweep_assignment =
          data::AssignByInterest(*sweep_dataset, sweep_assign, sweep_rng);
      if (!sweep_assignment.ok()) {
        std::fprintf(stderr, "%s\n", sweep_assignment.status().ToString().c_str());
        return 1;
      }
      core::HyperMOptions sweep_options;
      sweep_options.net.retry.adaptive = true;
      // Republish slowly enough that soft-state refresh stays well under the
      // radio's capacity; otherwise the transmit queues never drain and the
      // latency column measures backlog growth instead of burst queueing.
      sweep_options.net.summary_ttl_ms = 12000.0;
      sweep_options.net.republish_period_ms = 4000.0;
      sweep_options.channel.enabled = true;
      // Moderately sparse: mostly connected with intermittent mobility splits
      // (a fully sparse field at low speed partitions for many TTLs on end
      // and the recall column collapses to the island size).
      sweep_options.channel.field.field_size_m = 220.0;
      sweep_options.channel.field.radio_range_m = 70.0;
      sweep_options.channel.field.max_placement_attempts = 5000;
      sweep_options.channel.speed_m_per_s = speed;
      sweep_options.channel.bandwidth_bytes_per_ms = 1000.0;
      sweep_options.channel.tx_overhead_ms = 1.0;
      Result<std::unique_ptr<core::HyperMNetwork>> sweep_net =
          core::HyperMNetwork::Build(*sweep_dataset, *sweep_assignment,
                                     sweep_options, sweep_rng);
      if (!sweep_net.ok()) {
        std::fprintf(stderr, "%s\n", sweep_net.status().ToString().c_str());
        return 1;
      }
      core::HyperMNetwork& network = **sweep_net;
      network.AdvanceTo(network.radio_channel()->DrainedAtMs() + 10000.0);

      const core::FlatIndex oracle(*sweep_dataset);
      std::vector<core::PrecisionRecall> results;
      double latency_ms = 0.0;
      int issued = 0;
      const size_t n = sweep_dataset->size();
      const uint64_t retries_before = network.transport().counters().retries;
      const channel::RadioChannel* radio = network.radio_channel();
      for (int q = 0; q < 10; ++q) {
        const Vector& center = sweep_dataset->items[(static_cast<size_t>(q) * 17) % n];
        // Start each burst from drained queues so the latency column measures
        // the burst's own queueing, not leftover republish backlog.
        if (radio->DrainedAtMs() > network.now()) {
          network.AdvanceTo(radio->DrainedAtMs() + 1.0);
        }
        // Offered load: `load` identical queries issued back to back; every
        // copy after the first queues behind its predecessors.
        for (int rep = 0; rep < load; ++rep) {
          core::RangeQueryInfo info;
          Result<std::vector<core::ItemId>> r = network.RangeQuery(
              center, 0.8, (q + rep) % sweep_nodes, -1, &info);
          if (!r.ok()) {
            std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
            return 1;
          }
          results.push_back(core::Evaluate(*r, oracle.RangeSearch(center, 0.8)));
          latency_ms += info.latency_ms;
          ++issued;
        }
        network.AdvanceTo(network.now() + 500.0);
      }
      const uint64_t query_retries =
          network.transport().counters().retries - retries_before;
      std::printf("%-12.0f %-8d %10.3f %14.1f %10llu %14.1f %12llu\n", speed, load,
                  core::Summarize(results).mean_recall, latency_ms / issued,
                  static_cast<unsigned long long>(query_retries),
                  network.stats().total_energy_millijoules(),
                  static_cast<unsigned long long>(
                      network.radio_channel()->counters().disconnected_steps));
    }
  }
  std::printf("\nexpected shape: latency rises with offered load (transmit queues)\n"
              "and with speed (retries over flapping links); recall dips only\n"
              "when mobility splits the field faster than republish heals it\n");
  return 0;
}
