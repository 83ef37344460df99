// Flag → ScenarioConfig mapping shared by the CLI tool and the bench
// binaries, so every knob of the system is reachable from a command line.
//
// Recognized flags (all optional; defaults reproduce the paper's §5 setup):
//   workload:  --lambda --duration --seed --queue --task-size --warmup
//   topology:  --topology=mesh|torus|ring|star|complete|random
//              --width --height --nodes --links --topo-seed
//              --approx-paths (sampled path stats on large topologies)
//   protocol:  --protocol=<name|paper label>  --help-threshold
//              --pledge-threshold --alpha --beta --upper-limit
//              --help-timeout --push-interval --ttl --max-communities
//              --reward=migration|pledge --gossip-interval --gossip-fanout
//   migration: --tries
//   accounting: --cost=paper|exact  --flood=links|spanning  --unicast=<x>
//   attacks:   --attack=time:count:grace:outage (repeatable via commas:
//              "100:5:1:60,200:5:1:60")
//   extensions: --multires  --bw-mean  --secure-fraction
//               --federate=WxH (mesh blocks)  --escalation-window
//               --elusive=<period>
//   output:    --timeline=<interval>  --sample-interval=<s>
//              --engine-sample=<n>  --live-cadence=<s>
#pragma once

#include "common/flags.hpp"
#include "experiment/scenario.hpp"

namespace realtor::experiment {

/// Builds a ScenarioConfig from command-line flags. Throws
/// std::invalid_argument on a malformed --attack spec.
ScenarioConfig scenario_from_flags(const Flags& flags);

/// Parses a comma-separated "time:count:grace:outage" attack list (the
/// --attack flag grammar; an empty spec is no waves). Throws
/// std::invalid_argument naming the first malformed entry's 0-based index
/// and text. Shared with --attack-sweep, whose ';'-separated chunks each
/// use this grammar.
std::vector<AttackWave> parse_attack_waves(const std::string& spec);

/// Maps a --topology flag value to its TopologyKind (unknown names fall
/// back to the paper's mesh). Shared with the bench binaries so their
/// sweeps reach the same shapes as the CLI.
TopologyKind parse_topology_kind(const std::string& name);

/// Applies the topology flags (--topology/--width/--height/--nodes/
/// --links/--topo-seed) to `config`, unpinning the mesh-specific fixed
/// unicast cost for non-mesh shapes, plus --approx-paths.
void apply_topology_flags(const Flags& flags, ScenarioConfig& config);

}  // namespace realtor::experiment
