// Traced mirror of Fleet::Run (src/coop/fleet.cc).
//
// The benchmark cannot add spans inside the fleet, so its traced run drives
// the same loop from outside through the layers' public calls — phase-1
// probes, ReportFailure, snapshot freezes and re-freezes, the speculative
// batch fan-out with the consumed-prefix stop, client faults, the wire
// chunk/reassemble path with retries and backoff, ingest, sketch builds, the
// quorum gate and AsT advances — with one span around each call. The
// benchmark compares every mirrored diagnosis with the untraced Fleet::Run
// and counts any divergence as a failed diagnosis, so a change to the fleet
// that the mirror does not follow shows up as failures, not as silently
// wrong layer numbers.
//
// Supported FleetOptions: everything the benchmark's workloads set. The
// optional observers (recorder, profiler, campaign), anonymization, the
// artifact store and per-run tiers are rejected with a CHECK.

#ifndef GIST_SKETCHBENCH_MIRROR_H_
#define GIST_SKETCHBENCH_MIRROR_H_

#include "sketchbench/trace.h"
#include "src/coop/fleet.h"

namespace gist::bench {

FleetResult MirrorFleetRun(const Module& module, const WorkloadGenerator& generator,
                           const FleetOptions& options, const RootCauseCheck& root_cause_check,
                           Tracer* tracer);

}  // namespace gist::bench

#endif  // GIST_SKETCHBENCH_MIRROR_H_
