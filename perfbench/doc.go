// Perfbench is the engine benchmark: a driver outside the engine that
// submits seeded continuous queries to engine.Engine through its public
// API (New, Submit, Step, Report) and measures what a user of the engine
// sees, end to end, and in a separate traced run where the time goes,
// layer by layer.
//
// # Running
//
// From the root of the repository:
//
//	bash perfbench/run.sh --workload arrivals-100 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload faults-1k --seed 1 --seconds 30 --trace 1
//
// run.sh builds this module into .bench_build (with the Go build cache
// there too) and runs it. --trace 0 is the untraced run and prints the
// end-to-end metrics; --trace 1 is the traced run and prints the
// per-layer metrics, and writes the spans of its first traced pass to
// .bench_build/spans/<workload>.jsonl, one JSON object per line. The
// last line of the output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are the same
// figures as a table, with sample counts and the tail percentile used.
// BENCHMARK.json at the repository root records the workloads and each
// metric's unit, direction and bound; the table at the end of this
// comment gives the end-to-end metric each per-layer metric should move.
//
// perfbench is a Go module of its own that replaces repro with the
// enclosing repository, so the repository's go build ./... and
// go test ./... leave it out. Its own checks run inside it:
//
//	cd perfbench && go vet ./... && go test ./... && go run repro/cmd/aspen-vet ./...
//
// # Workloads and passes
//
// A pass runs one generated schedule on a fresh engine, from engine.New
// through a ramp (counted as set-up) and a steady state to the drain.
// Query arrivals are open in simulated time: the schedule never waits
// for the engine, while the driver itself is a closed loop that calls
// Step after the previous Step returns. The engine receives only
// generated inputs, and --seed derives all of them: arrival times, query
// shapes and lifetimes, Query0 seeds, sampler seeds, and the churn and
// fault seeds.
//
// A run is a sequence of rounds, each a fixed number of passes on fresh
// schedules drawn from the seed, until --seconds have passed; it always
// finishes the round it is in. Each timing is computed per round and
// reported as the median over rounds, so that a burst of noise from the
// machine in one round does not move it; setup_s is the median over all
// passes. Simulated figures (sim_bytes, base_bytes, result_delay_epochs)
// come from the first round, whose schedules are the same in every run
// at a seed. The tail is the highest of p99.9, p99, p95, p90 and p75
// that leaves at least 10 samples beyond it in every round; with fewer
// samples it falls back to the median, as for admissions on faults-1k,
// which admits two queries per pass.
//
// # Output checks
//
// Every run checks its outputs and exits non-zero on a mismatch: the sim
// accounting identity AggregateBytes == SharedBytes + QueryBytes on every
// pass; byte-identical reports for the traced pass and the untraced pass
// of the same schedule and, on arrivals-100, for the first schedule
// stepped with one worker; and at seed 1 the first round's committed
// fingerprint (traffic, results and every recovery and adaptivity
// counter) in checks.go.
//
// # Reading self times
//
// The traced run wraps the default In-Net algorithm in a join.Continuous
// that times Start, Step, Finish, HandleNodeFailure, HandleLinkFaults and
// AdaptEpoch, and forwards every other capability of the In-Net stepper.
// The driver records spans around engine.New, engine.Submit, engine.Step
// and the final drain. Each wrapped call is a child of the driver span it
// ran in and carries its query ID.
//
// A span's self time is its duration minus the part of it that its
// children cover. With several workers, children overlap; overlapping
// wall counts once, so a Step's self time is what the engine itself did
// in that Step: scheduling, index extension at admission, and the ledger
// merge at the barrier. engine.self_ms is its mean per Step, and
// engine.self_churn_ms its mean over the Steps whose churn schedule
// failed a node. engine.step_parallelism is the summed duration of the
// join.step spans over the wall they cover. The traced run checks that
// each pass's root spans (self time plus the wall their children cover)
// add up to within 5% of the time the driver's own stopwatch measured in
// Submit and Step.
//
// # Per-layer metrics and what they should move
//
// Per-call times are means per call; counts are means per pass.
//
//	topology.generate_ms, routing.substrate_build_ms  setup_s on scale-10k
//	engine.submit_ms                                  admit_p50_ms on arrivals-100
//	join.admit_ms, join.admit_calls                   admit_p50_ms, admit_tail_ms on arrivals-100 and scale-10k
//	join.admit_alloc_kb                               live_heap_mb, admit_p50_ms on scale-10k
//	join.step_us, join.step_calls                     query_epochs_per_s, epoch_p50_ms on arrivals-100
//	join.finish_ms, engine.self_ms                    epoch_p50_ms on arrivals-100
//	engine.step_parallelism                           query_epochs_per_s on arrivals-100
//	join.recover_ms, join.paths_repaired,
//	join.base_fallbacks, join.repair_ratio            epoch_tail_ms on faults-1k
//	join.link_recover_ms, faults.link_rerouted,
//	faults.link_fallbacks                             query_epochs_per_s on faults-1k
//	routing.trees_rebuilt, routing.trees_patched,
//	routing.patch_ratio, engine.self_churn_ms         epoch_tail_ms on faults-1k
//	join.adapt_ms, adapt.migrations, adapt.aborted,
//	adapt.commit_ratio                                epoch_tail_ms, query_epochs_per_s on faults-1k
//	engine.epoch_overrun_ratio                        epoch_tail_ms on faults-1k
//	engine.retained_queries                           live_heap_mb on scale-10k
//	sim.shared_bytes, sim.init_bytes, sim.query_bytes sim_bytes on every workload
//	sim.results_lost_ratio                            result_delay_epochs on faults-1k
//	runtime.alloc_kb_per_query_epoch,
//	runtime.gc_cycles, runtime.gc_pause_ms            live_heap_mb, epoch_tail_ms on every workload
//	trace.overhead_ratio                              none: traced over untraced wall, per workload
package main
