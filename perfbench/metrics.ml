(* The metrics every run reports, with the units and directions
   BENCHMARK.json declares for them. End-to-end metrics carry the
   bound (a share of the previous median) by which they may worsen;
   per-layer metrics explain where an end-to-end change came from and
   are not gated. *)

type better = Lower | Higher
type kind = End_to_end of float | Per_layer

type t = { name : string; unit_ : string; better : better; kind : kind }

let e2e name unit_ ?(better = Lower) bound =
  { name; unit_; better; kind = End_to_end bound }

let layer name unit_ ?(better = Lower) () =
  { name; unit_; better; kind = Per_layer }

let end_to_end =
  [
    e2e "setup_s" "s" 0.25;
    e2e "checked_run_s" "s" 0.25;
    e2e "vanilla_run_s" "s" 0.25;
    e2e "checked_mem_mb" "MB" 0.05;
    e2e "matrix_s" "s" 0.25;
    e2e "explore_s" "s" 0.25;
    e2e "lint_s" "s" 0.25;
    e2e "job_p50_ms" "ms" 0.25;
    e2e "job_p99_ms" "ms" 0.25;
  ]

let per_layer =
  [
    (* kernel execution *)
    layer "cudasim.exec_s" "s" ();
    layer "kernel.computed_mb" "MB" ();
    layer "cudasim.ops" "count" ();
    (* host simulation *)
    layer "sim.host_s" "s" ();
    layer "sched.switches" "count" ();
    layer "mpi.calls" "count" ();
    layer "mpi.nonblocking" "count" ();
    layer "mpi.mb" "MB" ();
    layer "mpi.in_call_s" "s" ();
    (* tool layers, by differential flavor runs *)
    layer "tsan.layer_s" "s" ();
    layer "cusan.layer_s" "s" ();
    layer "must.layer_s" "s" ();
    (* tsan *)
    layer "tsan.read_ranges" "count" ();
    layer "tsan.write_ranges" "count" ();
    layer "tsan.read_mb" "MB" ();
    layer "tsan.write_mb" "MB" ();
    layer "tsan.uniform_pages" "count" ();
    layer "tsan.materialized_pages" "count" ();
    layer "tsan.region_cache_hit_ratio" "ratio" ~better:Higher ();
    layer "tsan.fiber_switches" "count" ();
    layer "tsan.hb" "count" ();
    layer "tsan.ha" "count" ();
    (* must and cusan runtime *)
    layer "must.request_fibers" "count" ();
    layer "cusan.kernels" "count" ();
    layer "cusan.syncs" "count" ();
    layer "cusan.memcpys" "count" ();
    (* OCaml runtime *)
    layer "gc.minor_mwords" "Mwords" ();
    layer "gc.major_collections" "count" ();
    (* static layers *)
    layer "kir.validate_ms" "ms" ();
    layer "cusan.race_analysis_ms" "ms" ();
    layer "cusan.witness_ms" "ms" ();
    layer "cusan.certificate_ms" "ms" ();
    layer "cusan.certcheck_ms" "ms" ();
    layer "cusan.repair_ms" "ms" ();
    layer "cusan.kernel_analysis_ms" "ms" ();
    (* harness, testsuite and explore *)
    layer "harness.empty_run_ms" "ms" ();
    layer "matrix.case_p50_ms" "ms" ();
    layer "explore.runs" "count" ();
    layer "explore.run_ms" "ms" ();
    layer "explore.sleep_skips" "count" ();
    (* server and pool; the job rate is not gated, see the README *)
    layer "jobs_per_s" "1/s" ~better:Higher ();
    layer "server.engine_ms_p50" "ms" ();
    layer "server.overhead_ms_p50" "ms" ();
    layer "server.health_rtt_ms" "ms" ();
    layer "server.cache_hits" "count" ~better:Higher ();
    layer "server.hit_ratio" "ratio" ~better:Higher ();
    layer "server.journal_appends" "count" ();
    layer "server.compactions" "count" ();
    (* the benchmark itself *)
    layer "trace.overhead_s" "s" ();
    layer "host.calib_ms" "ms" ();
  ]
  (* the end-to-end times as measured, before the machine-speed scaling *)
  @ List.filter_map
      (fun m ->
        if m.name = "checked_mem_mb" then None
        else Some { m with name = "raw." ^ m.name; kind = Per_layer })
      end_to_end

let all = end_to_end @ per_layer
let find name = List.find_opt (fun m -> m.name = name) all
let better_str = function Lower -> "lower" | Higher -> "higher"
