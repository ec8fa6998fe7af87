(* The benchmark's workloads. Every run of every workload is a whole
   user session: the three things a user of this repository waits on
   (checking an application run, a verification pass, and jobs served
   by the cusand daemon) repeated in rounds until the run's time is up.
   A workload fixes the application and how many of each operation a
   round holds, so each workload puts its time into a different part of
   the system while every run still reports every metric.

   Everything here is observed from outside the libraries: wall time
   around public calls, the harness result record, the PMPI and
   detector observers, a recorder sink, the counter modules, the GC's
   own statistics and the daemon's replies. *)

module R = Harness.Run
module F = Harness.Flavor
module Mjson = Reporting.Mjson
module P = Server.Protocol
module Corpus = Testsuite.Corpus
module RA = Cusan.Race_analysis

let now = Unix.gettimeofday

(* --- workload definitions ------------------------------------------------ *)

type app =
  | Jacobi of { nx : int; ny : int; iters : int }
  | Tealeaf of { nx : int; ny : int; steps : int; cg_iters : int; alpha : float }

type spec = {
  name : string;
  why : string;
  app : app;
  app_reps : int;  (** checked + vanilla execution pairs per round *)
  passes : int;  (** verification passes per round *)
  deals : int;  (** batches of daemon jobs per round, one deal each *)
}

let norm_every = 10
let nranks = 2

(* A small domain run for many timesteps of a few CG iterations each:
   thousands of non-blocking requests, and CG stays clear of its
   1e-24 stopping threshold so every run makes the same number of
   iterations. *)
let tealeaf_big = Tealeaf { nx = 16; ny = 16; steps = 60; cg_iters = 6; alpha = 0.1 }

let workloads =
  [
    {
      name = "jacobi-stencil";
      why =
        "Jacobi 256x256, 40 sweeps, blocking Sendrecv halos: kernel bodies \
         and the shadow walk over a few huge ranges dominate";
      app = Jacobi { nx = 256; ny = 256; iters = 40 };
      app_reps = 1;
      passes = 1;
      deals = 1;
    };
    {
      name = "tealeaf-requests";
      why =
        "TeaLeaf 16x16, 60 steps x 6 CG iterations: thousands of \
         Isend/Irecv/Waitall, allreduces and tiny kernels";
      app = tealeaf_big;
      app_reps = 1;
      passes = 1;
      deals = 1;
    };
    {
      name = "verify-batch";
      why =
        "repeated passes of the 88-case matrix, --explore and kirlint \
         --witness --certify --suggest-fixes: many short runs";
      app = Jacobi { nx = 64; ny = 64; iters = 20 };
      app_reps = 1;
      passes = 6;
      deals = 1;
    };
    {
      name = "daemon-campaign";
      why =
        "a journaled one-worker cusand fed a seeded mix of 40% lint jobs (cache \
         reads after a target's first) and 60% fresh soak jobs";
      app = Tealeaf { nx = 16; ny = 16; steps = 10; cg_iters = 6; alpha = 0.1 };
      app_reps = 1;
      passes = 1;
      deals = 1;
    };
  ]

(* The smoke mode keeps each workload's shape with tiny inputs. *)
let smoke_app = function
  | Jacobi _ -> Jacobi { nx = 32; ny = 16; iters = 10 }
  | Tealeaf t -> Tealeaf { t with steps = 3 }

let find name = List.find_opt (fun s -> s.name = name) workloads

(* --- per-run bookkeeping ------------------------------------------------ *)

type run = {
  samples : (string, float list) Hashtbl.t;
  values : (string, float) Hashtbl.t;  (** single-valued layer readings *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first, all of them *)
}

let create_run () =
  {
    samples = Hashtbl.create 64;
    values = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    problems = [];
  }

let sample r key v =
  Hashtbl.replace r.samples key
    (v :: Option.value (Hashtbl.find_opt r.samples key) ~default:[])

let samples r key = Option.value (Hashtbl.find_opt r.samples key) ~default:[]
let set r key v = Hashtbl.replace r.values key v

let problem r msg =
  if List.length r.problems < 20 then Fmt.epr "perfbench: check failed: %s@." msg;
  r.problems <- msg :: r.problems

(* One operation: counted as attempted, and as failed when any of its
   checks reports a problem. *)
let operation r (problems : string list) =
  r.attempted <- r.attempted + 1;
  if problems <> [] then begin
    r.failed <- r.failed + 1;
    List.iter (problem r) problems
  end

let timed f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* --- application executions --------------------------------------------- *)

type execution = { wall : float; res : R.result; results : float array }

let execute ?mpi_observer ?(racy_jacobi = false) ?(racy_tealeaf = `No) ~flavor
    app =
  match app with
  | Jacobi { nx; ny; iters } ->
      let cfg =
        Apps.Jacobi.config ~nx ~ny ~iters ~norm_every ~racy:racy_jacobi ~nranks
          ()
      in
      let wall, res =
        timed (fun () -> R.run ~nranks ?mpi_observer ~flavor (Apps.Jacobi.app cfg))
      in
      { wall; res; results = cfg.Apps.Jacobi.results }
  | Tealeaf { nx; ny; steps; cg_iters; alpha } ->
      let cfg =
        Apps.Tealeaf.config ~nx ~ny ~steps ~cg_iters ~alpha ~racy:racy_tealeaf
          ~nranks ()
      in
      let wall, res =
        timed (fun () ->
            R.run ~nranks ?mpi_observer ~flavor (Apps.Tealeaf.app cfg))
      in
      { wall; res; results = cfg.Apps.Tealeaf.results }

(* The value every rank must end with, from the benchmark's own serial
   code, and for TeaLeaf the whole sequence of reduced dot products. *)
type expected = { final : float; dots : float list }

let expected_of = function
  | Jacobi { nx; ny; iters } ->
      { final = Oracle.jacobi_norm ~nx ~ny ~iters; dots = [] }
  | Tealeaf { nx; ny; steps; cg_iters; alpha } ->
      let dots = Oracle.tealeaf_dots ~nx ~ny ~steps ~cg_iters ~alpha in
      { final = List.nth dots (List.length dots - 1); dots }

let app_label = function
  | Jacobi { nx; ny; iters } -> Fmt.str "jacobi %dx%dx%d" nx ny iters
  | Tealeaf { nx; ny; steps; cg_iters; _ } ->
      Fmt.str "tealeaf %dx%d %d steps x %d CG" nx ny steps cg_iters

(* Problems of one correct-variant execution. *)
let check_execution ~label ~(expected : expected) (e : execution) =
  let res = e.res in
  let flavor = F.name res.R.flavor in
  let p = ref [] in
  let add fmt = Fmt.kstr (fun s -> p := Fmt.str "%s [%s]: %s" label flavor s :: !p) fmt in
  if res.R.deadlock <> None then add "deadlock";
  if res.R.stall <> None then add "stall";
  List.iter (fun (rank, msg) -> add "rank %d failed: %s" rank msg) res.R.failures;
  if res.R.races <> [] then add "%d race report(s)" (List.length res.R.races);
  if res.R.must_errors <> [] then
    add "%d MUST error(s)" (List.length res.R.must_errors);
  if R.has_static_musts res then add "static must-race";
  Array.iteri
    (fun rank got ->
      if not (Oracle.agrees ~tol:1e-6 got expected.final) then
        add "rank %d result %.17g, serial reference %.17g" rank got
          expected.final)
    e.results;
  List.rev !p

(* --- verification pass ---------------------------------------------------- *)

type lint_target = {
  id : string;
  m : Kir.Ir.modul;
  entry : string;
  gt : Corpus.entry option;
}

(* kirlint's two target sets: the app suite and the seeded corpus. *)
let lint_targets () =
  let of_module suite (m : Kir.Ir.modul) =
    List.map
      (fun entry -> { id = suite ^ "/" ^ entry; m; entry; gt = None })
      m.Kir.Ir.kernels
  in
  of_module "jacobi" Apps.Jacobi.device_module
  @ of_module "tealeaf" Apps.Tealeaf.device_module
  @ of_module "pingpong" Apps.Pingpong.fill_src
  @ of_module "cutests" Testsuite.Cases.device_module
  @ List.map
      (fun (e : Corpus.entry) ->
        { id = "corpus/" ^ e.Corpus.name; m = e.Corpus.m; entry = e.Corpus.entry;
          gt = Some e })
      Corpus.all

(* Time [f] into the pass-local accumulator [slot]. *)
let clocked slot f =
  let t0 = now () in
  let x = f () in
  slot := !slot +. (now () -. t0);
  x

type static_clock = {
  validate : float ref;
  race : float ref;
  witness : float ref;
  certificate : float ref;
  certcheck : float ref;
  repair : float ref;
}

(* One target through validation, race analysis, witness replay, barrier
   repair and certification, each public call timed. Returns the
   target's problems against the hand-written expectations. *)
let lint_one c (t : lint_target) =
  let p = ref [] in
  let add fmt = Fmt.kstr (fun s -> p := (t.id ^ ": " ^ s) :: !p) fmt in
  let valid =
    match clocked c.validate (fun () -> Kir.Validate.check_module t.m) with
    | () -> true
    | exception Kir.Validate.Invalid _ -> false
  in
  (if not valid then
     match t.gt with
     | Some { Corpus.expect = Corpus.Invalid; _ } -> ()
     | _ -> add "rejected by the validator"
   else
     let races = clocked c.race (fun () -> RA.analyze t.m ~entry:t.entry) in
     let proved =
       List.exists
         (fun race ->
           match clocked c.witness (fun () -> Cusan.Witness.prove t.m ~entry:t.entry race) with
           | Cusan.Witness.Proved _ -> true
           | Cusan.Witness.Unproved _ -> false)
         races
     in
     let fix = clocked c.repair (fun () -> Cusan.Repair.suggest t.m ~entry:t.entry) in
     (match clocked c.certificate (fun () -> Cusan.Certificate.build t.m ~entry:t.entry) with
     | Error _ ->
         if t.gt = None && races = [] then add "race-free kernel left uncertified"
     | Ok cert -> (
         let bytes = Mjson.to_string_pretty (Cusan.Certificate.to_json cert) in
         match Mjson.of_string bytes with
         | Error e -> add "certificate does not parse back: %s" e
         | Ok doc -> (
             match clocked c.certcheck (fun () -> Cusan.Certcheck.check t.m ~entry:t.entry doc) with
             | Ok () ->
                 if proved then add "certified a kernel with a proved race"
             | Error e -> add "certificate rejected by Certcheck: %s" e)));
     match t.gt with
     | None ->
         (* App-suite kernels: no proved race, nothing to repair. *)
         if proved then add "proved race in an app kernel";
         if fix <> Cusan.Repair.Already_clean then add "repair proposed for an app kernel"
     | Some e ->
         let must = RA.has_must races in
         (match e.Corpus.expect with
         | Corpus.Invalid -> add "validator accepted an invalid module"
         | Corpus.Must -> if not must then add "must-race not found"
         | Corpus.May -> if races = [] || must then add "expected may-races only"
         | Corpus.Clean -> if races <> [] then add "race reported on a clean kernel");
         if proved <> e.Corpus.proves then
           add "witness %s, expected %s"
             (if proved then "proved" else "unproved")
             (if e.Corpus.proves then "proved" else "unproved");
         let repair_ok =
           match (fix, e.Corpus.repair) with
           | Cusan.Repair.Already_clean, Corpus.Nothing_to_fix -> true
           | Cusan.Repair.Fixed f, Corpus.Fixable pts -> f.Cusan.Repair.fpoints = pts
           | Cusan.Repair.Unrepairable _, Corpus.Unfixable -> true
           | _ -> false
         in
         if not repair_ok then add "repair outcome differs from the corpus");
  List.rev !p

(* One verification pass: the matrix, the schedule-space exploration of
   the sched-sensitive family, and the lint of both target sets. *)
let verify_pass r targets =
  let problems = ref [] in
  let add s = problems := s :: !problems in
  let matrix_s, () =
    timed (fun () ->
        List.iter
          (fun (case : Testsuite.Cases.case) ->
            let dt, v = timed (fun () -> Testsuite.Runner.run_case case) in
            sample r "case_s" dt;
            let racy = case.Testsuite.Cases.expect = Testsuite.Cases.Racy in
            let name = case.Testsuite.Cases.name in
            if v.Testsuite.Runner.detected <> racy then
              add (Fmt.str "matrix %s: %s" name
                     (if racy then "race missed" else "false positive"));
            if not v.Testsuite.Runner.pass then add (Fmt.str "matrix %s: FAIL" name);
            if v.Testsuite.Runner.stall <> None then add (Fmt.str "matrix %s: stall" name);
            if (not racy) && v.Testsuite.Runner.failures <> [] then
              add (Fmt.str "matrix %s: rank failure" name))
          (Testsuite.Cases.all ()))
  in
  let explore_s, verdicts =
    timed (fun () -> Testsuite.Explore_runner.explore_family ())
  in
  let runs = ref 0 and skips = ref 0 in
  List.iter
    (fun (v : Testsuite.Explore_runner.explore_verdict) ->
      let s = v.Testsuite.Explore_runner.stats in
      runs := !runs + s.Explore.runs;
      skips := !skips + s.Explore.sleep_skips;
      if not v.Testsuite.Explore_runner.pass then
        add ("explore " ^ v.Testsuite.Explore_runner.case.Testsuite.Cases.name ^ ": FAIL"))
    verdicts;
  let c =
    { validate = ref 0.; race = ref 0.; witness = ref 0.; certificate = ref 0.;
      certcheck = ref 0.; repair = ref 0. }
  in
  let lint_s, () =
    timed (fun () -> List.iter (fun t -> List.iter add (lint_one c t)) targets)
  in
  sample r "matrix_s" matrix_s;
  sample r "explore_s" explore_s;
  sample r "lint_s" lint_s;
  sample r "explore_run_s" (explore_s /. float_of_int (max 1 !runs));
  set r "explore.runs" (float_of_int !runs);
  set r "explore.sleep_skips" (float_of_int !skips);
  List.iter
    (fun (k, v) -> sample r k !v)
    [ ("validate_s", c.validate); ("race_s", c.race); ("witness_s", c.witness);
      ("certificate_s", c.certificate); ("certcheck_s", c.certcheck);
      ("repair_s", c.repair) ];
  List.rev !problems

(* --- daemon campaign ---------------------------------------------------- *)

(* The daemon caches results until it holds this many; the benchmark
   raises the default (1024) above what a run submits, so every fresh
   job is an engine run plus a journal append for the whole run. *)
let cache_cap = 1_000_000

type campaign = {
  daemon : Client.daemon;
  prng : Random.State.t;
  mutable deals : int;
  mutable lints_dealt : int;
  mutable kinds : int * int * int;  (** lint jobs, soak jobs, repeats sent *)
  sent : (string, unit) Hashtbl.t;  (** digests submitted so far *)
  oracle : (string, Digest.t) Hashtbl.t;  (** digest -> in-process result *)
}

let campaign daemon ~seed =
  {
    daemon;
    prng = Random.State.make [| seed; 0x6a0b |];
    deals = 0;
    lints_dealt = 0;
    kinds = (0, 0, 0);
    sent = Hashtbl.create 1024;
    oracle = Hashtbl.create 1024;
  }

let shuffle prng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let lint_ids = lazy (Array.of_list (Server.Engine.lint_target_ids ()))

(* Lint and soak jobs, the two job kinds of the repository's own
   campaign (`cusanctl bench`), which sends them half and half. A deal
   holds one soak job per matrix case, seeded with the deal's number so
   that each is new work (an engine run and a journal append), and two
   lint jobs for every three soak jobs, the kirlint targets taken in
   turn. A lint job's digest is its target alone, so after a target's
   first job every lint job is a cache read. With half and half, the
   cache reads would be half the jobs and the median job would sit on
   the edge between the fast cache reads and the slower fresh jobs,
   where it jumps from run to run; at 40% it lies inside the fresh
   jobs. The run's seed shuffles each deal; every run submits the same
   mix. *)
let deal c =
  c.deals <- c.deals + 1;
  let soaks =
    List.map
      (fun case -> P.Soak { case; seed = c.deals; faults = None })
      (Server.Engine.soak_case_ids ())
  in
  let targets = Lazy.force lint_ids in
  let lints =
    List.init (List.length soaks * 2 / 3) (fun i ->
        P.Lint { target = targets.((c.lints_dealt + i) mod Array.length targets) })
  in
  c.lints_dealt <- c.lints_dealt + List.length lints;
  shuffle c.prng (soaks @ lints)

(* Notes [job] as sent; returns whether its digest was sent before. *)
let note_sent c job =
  let digest = P.job_digest job in
  let repeat = Hashtbl.mem c.sent digest in
  Hashtbl.replace c.sent digest ();
  let lint, soak, repeats = c.kinds in
  let b = Bool.to_int in
  c.kinds <-
    ( lint + b (match job with P.Lint _ -> true | _ -> false),
      soak + b (match job with P.Soak _ -> true | _ -> false),
      repeats + b repeat );
  repeat

(* The set-up's warm-up jobs do not depend on the seed, so neither does
   its time: one lint job for each of the first five kirlint targets
   and one soak job, with a seed no deal uses, for each of the first
   five matrix cases. *)
let warmup_jobs () =
  let first n xs = List.filteri (fun i _ -> i < n) xs in
  List.map (fun target -> P.Lint { target }) (first 5 (Server.Engine.lint_target_ids ()))
  @ List.map
      (fun case -> P.Soak { case; seed = 0; faults = None })
      (first 5 (Server.Engine.soak_case_ids ()))

type reply = { job : P.job; repeat : bool; rtt : float; body : Mjson.t }

(* One deal's jobs back to back; only the loop is timed. Every batch
   holds the same jobs, so its rate varies with the machine, not with
   how many of the rare slow jobs it happened to draw. *)
let job_batch r c =
  let jobs = deal c in
  let replies = ref [] in
  let wall, () =
    timed (fun () ->
        List.iter
          (fun job ->
            let repeat = note_sent c job in
            let rtt, body = timed (fun () -> Client.rpc c.daemon (P.Submit job)) in
            replies := { job; repeat; rtt; body } :: !replies)
          jobs)
  in
  sample r "batch_rate" (float_of_int (List.length jobs) /. wall);
  List.rev !replies

(* Untimed: every reply must carry the bytes an in-process engine run
   produces, repeats must be cache hits and fresh jobs must not be. *)
let check_reply r c { job; repeat; rtt; body } =
  let digest = P.job_digest job in
  let want =
    match Hashtbl.find_opt c.oracle digest with
    | Some d -> d
    | None ->
        let d =
          Digest.string
            (match Server.Engine.run_job job with
            | Ok j -> Mjson.to_string j
            | Error msg -> "engine error: " ^ msg)
        in
        Hashtbl.replace c.oracle digest d;
        d
  in
  let field k conv = Option.bind (Mjson.member k body) conv in
  let cached = field "cached" Mjson.to_bool = Some true in
  let problems =
    match Client.status body with
    | Some "ok" ->
        let got = Option.fold ~none:"" ~some:Mjson.to_string (Mjson.member "result" body) in
        let elapsed = Option.value (field "elapsed_s" Mjson.to_float) ~default:nan in
        sample r "job_s" rtt;
        sample r "overhead_s" (rtt -. elapsed);
        if not cached then sample r "engine_s" elapsed;
        List.filter_map Fun.id
          [
            (if Digest.string got <> want then
               Some "reply differs from the in-process engine"
             else None);
            (if repeat && not cached then Some "repeated job was not a cache hit"
             else None);
            (if cached && not repeat then Some "fresh job answered from the cache"
             else None);
          ]
    | s -> [ "status " ^ Option.value s ~default:"missing" ]
  in
  operation r (List.map (fun s -> Fmt.str "job %s: %s" (P.job_describe job) s) problems)

(* --- layer probes ---------------------------------------------------------- *)

(* What one traced checked execution shows from outside: PMPI calls,
   the recorder's scheduler switches and MPI spans. *)
let traced_execution r app =
  let calls = ref 0 and nonblocking = ref 0 and bytes = ref 0 in
  let mpi_observer ~rank:_ phase (call : Mpisim.Hooks.call) =
    if phase = Mpisim.Hooks.Pre then begin
      incr calls;
      let add count (dt : Mpisim.Datatype.t) = bytes := !bytes + (count * dt.Mpisim.Datatype.size) in
      match call with
      | Isend { req } | Irecv { req } ->
          incr nonblocking;
          add req.Mpisim.Request.count req.Mpisim.Request.dt
      | Send { count; dt; _ } | Ssend { count; dt; _ } | Recv { count; dt; _ }
      | Allreduce { count; dt; _ } | Bcast { count; dt; _ } | Reduce { count; dt; _ }
      | Allgather { count; dt; _ } | Gather { count; dt; _ } | Scatter { count; dt; _ }
      | Rma_put { count; dt; _ } | Rma_get { count; dt; _ }
      | Rma_accumulate { count; dt; _ } ->
          add count dt
      | Init | Finalize | Wait _ | Waitall _ | Test _ | Barrier | Win_create _
      | Win_fence _ | Win_free _ ->
          ()
    end
  in
  let switches = ref 0 and in_call = ref 0. in
  let open_spans = Hashtbl.create 8 in
  Trace.Recorder.enable ();
  Trace.Recorder.set_sink (fun (ev : Trace.Event.t) ->
      match (ev.Trace.Event.cat, ev.Trace.Event.phase) with
      | "sched", Trace.Event.Instant when ev.Trace.Event.name = "resume" -> incr switches
      | "mpi", Trace.Event.Begin -> Hashtbl.replace open_spans ev.Trace.Event.pid ev.Trace.Event.ts_us
      | "mpi", Trace.Event.End -> (
          match Hashtbl.find_opt open_spans ev.Trace.Event.pid with
          | Some t0 ->
              Hashtbl.remove open_spans ev.Trace.Event.pid;
              in_call := !in_call +. ((ev.Trace.Event.ts_us -. t0) /. 1e6)
          | None -> ())
      | _ -> ());
  let e =
    Fun.protect
      ~finally:(fun () ->
        Trace.Recorder.clear_sink ();
        Trace.Recorder.disable ())
      (fun () -> execute ~mpi_observer ~flavor:F.Must_cusan app)
  in
  sample r "traced_s" e.wall;
  set r "sched.switches" (float_of_int !switches);
  set r "mpi.calls" (float_of_int !calls);
  set r "mpi.nonblocking" (float_of_int !nonblocking);
  set r "must.request_fibers" (float_of_int !nonblocking);
  set r "mpi.mb" (float_of_int !bytes /. 1e6);
  sample r "mpi_in_call_s" !in_call;
  e

(* Every reduced dot product of a TeaLeaf run, read from rank 0's
   receive buffer as each MPI_Allreduce returns. *)
let allreduce_values ~racy app =
  let got = ref [] in
  let mpi_observer ~rank phase (call : Mpisim.Hooks.call) =
    match (phase, call) with
    | Mpisim.Hooks.Post, Allreduce { recvbuf; _ } when rank = 0 ->
        got := Memsim.Access.raw_get_f64 recvbuf 0 :: !got
    | _ -> ()
  in
  let e = execute ~mpi_observer ~racy_tealeaf:racy ~flavor:F.Must_cusan app in
  (e, List.rev !got)

(* Bytes the kernel bodies load and store, from the problem size. *)
let kernel_bytes app ~(expected : expected) =
  match app with
  | Jacobi { nx; ny; iters } ->
      let norms = (iters + norm_every - 1) / norm_every in
      8 * ((iters * (nx - 2) * ny * 5) + (norms * nx * ny * 2) + (2 * nx * (ny + (2 * nranks))))
  | Tealeaf { nx; ny; steps; _ } ->
      (* per cell: 3 memsets, copy, residual and first dot per step;
         matvec, two dots, two axpys and the beta update per CG
         iteration *)
      let cells = nx * (ny + (2 * nranks)) in
      let iterations = (List.length expected.dots - steps) / 2 in
      8 * cells * (1 + (steps * 15) + (iterations * 19))

(* --- machine speed ------------------------------------------------------ *)

(* The shared host this benchmark runs on changes speed by 20-40% within
   minutes, in the program and in any fixed task alike, so raw wall
   times cannot hold a regression bound of 25%. Every round therefore
   also times a fixed reference task (calib.ml) in a fresh process that
   runs no code of the repository, and the end-to-end times are
   reported at the machine speed where that task takes [reference_s]. *)
let reference_s = 0.020

let reference_sample ~calib =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process calib [| calib |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  close_in ic;
  match (Unix.waitpid [] pid, Option.bind line float_of_string_opt) with
  | (_, Unix.WEXITED 0), Some dt -> dt
  | _ -> failwith "calib.exe gave no time"

(* --- the session -------------------------------------------------------- *)

type options = {
  spec : spec;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  setup_only : bool;  (** set up, say "ready" and stop: one [setup_s] sample *)
  cusand : string;
  calib : string;
  run_dir : string;
}

(* A tail percentile needs this many jobs in a run (ten beyond p99). *)
let min_jobs = 1000

let app_round r o ~app ~expected ~label =
  let run flavor =
    let e = execute ~flavor app in
    operation r (check_execution ~label ~expected e);
    e
  in
  let gc0 = Gc.quick_stat () in
  let checked = run F.Must_cusan in
  let gc1 = Gc.quick_stat () in
  let vanilla = run F.Vanilla in
  sample r "checked_s" checked.wall;
  sample r "vanilla_s" vanilla.wall;
  sample r "device_exec_s" checked.res.R.device_exec_s;
  sample r "host_s" (vanilla.wall -. vanilla.res.R.device_exec_s);
  sample r "checked_mem_mb" (float_of_int checked.res.R.rss_bytes /. 1e6);
  sample r "gc_minor_mwords" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
  sample r "gc_major" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  if o.trace then begin
    let tsan = run F.Tsan and cusan = run F.Cusan in
    sample r "tsan_s" tsan.wall;
    sample r "cusan_s" cusan.wall;
    let traced = traced_execution r app in
    operation r (check_execution ~label ~expected traced)
  end;
  checked

let layer_counters r (res : R.result) =
  let t = res.R.tsan_counters and c = res.R.cuda_counters in
  let f = float_of_int in
  let ranges = t.Tsan.Counters.read_ranges + t.Tsan.Counters.write_ranges in
  List.iter
    (fun (k, v) -> set r k v)
    [
      ("cudasim.ops", f (c.Cusan.Counters.kernels + c.Cusan.Counters.memcpys + c.Cusan.Counters.memsets));
      ("tsan.read_ranges", f t.Tsan.Counters.read_ranges);
      ("tsan.write_ranges", f t.Tsan.Counters.write_ranges);
      ("tsan.read_mb", f t.Tsan.Counters.read_bytes /. 1e6);
      ("tsan.write_mb", f t.Tsan.Counters.write_bytes /. 1e6);
      ("tsan.uniform_pages", f t.Tsan.Counters.uniform_pages);
      ("tsan.materialized_pages", f t.Tsan.Counters.materialized_pages);
      ("tsan.region_cache_hit_ratio",
       if ranges = 0 then 0. else f t.Tsan.Counters.region_cache_hits /. f ranges);
      ("tsan.fiber_switches", f t.Tsan.Counters.fiber_switches);
      ("tsan.hb", f t.Tsan.Counters.happens_before);
      ("tsan.ha", f t.Tsan.Counters.happens_after);
      ("cusan.kernels", f c.Cusan.Counters.kernels);
      ("cusan.syncs", f c.Cusan.Counters.syncs);
      ("cusan.memcpys", f c.Cusan.Counters.memcpys);
    ]

let app_modules =
  [ Apps.Jacobi.device_module; Apps.Tealeaf.device_module; Apps.Pingpong.fill_src ]

(* Batches keep every timed sample well above a millisecond. *)
let per_call_batch r key n f =
  let dt, () = timed (fun () -> for _ = 1 to n do f () done) in
  sample r key (dt /. float_of_int n)

(* Everything before the first timed operation: the inputs, the device
   modules' analysis, one warm-up of each stage and a daemon that
   answers. Returns the lint targets and the daemon's campaign. *)
let setup r o ~app ~expected ~label ~dir ~on_daemon =
  let targets = lint_targets () in
  List.iter (fun m -> ignore (Cusan.Kernel_analysis.analyze_module m)) app_modules;
  let warm = create_run () in
  ignore (app_round warm { o with trace = false } ~app ~expected ~label);
  ignore (verify_pass warm targets);
  let daemon = Client.start ~exe:o.cusand ~dir ~cache_cap in
  on_daemon daemon;
  let c = campaign daemon ~seed:o.seed in
  List.iter
    (fun job ->
      let repeat = note_sent c job in
      let rtt, body = timed (fun () -> Client.rpc c.daemon (P.Submit job)) in
      check_reply warm c { job; repeat; rtt; body })
    (warmup_jobs ());
  List.iter (problem r) (List.rev warm.problems);
  (targets, c)

(* [setup_s] is the median of this many set-ups, each in a fresh
   process of this executable timed from its start to the point where
   its first timed operation would begin. *)
let setup_runs = 11

let setup_sample o =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--workload"; o.spec.name; "--seed"; string_of_int o.seed; "--seconds"; "0";
      "--trace"; "0"; "--cusand"; o.cusand; "--setup-only" ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = In_channel.input_line ic in
  let dt = now () -. t0 in
  close_in ic;
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some "ready" -> Ok dt
  | _ -> Error "a timed set-up failed"

(* The body of a [--setup-only] process: returns whether the set-up's
   checks passed. The daemon is drained after "ready", outside the
   timed span. *)
let setup_only o =
  let app = if o.smoke then smoke_app o.spec.app else o.spec.app in
  let r = create_run () in
  let daemon = ref None in
  Fun.protect ~finally:(fun () -> Option.iter Client.kill !daemon) @@ fun () ->
  let _, c =
    setup r o ~app ~expected:(expected_of app) ~label:(app_label app)
      ~dir:(Filename.concat o.run_dir "daemon") ~on_daemon:(fun d -> daemon := Some d)
  in
  print_endline "ready";
  let clean = Client.stop c.daemon in
  daemon := None;
  clean && r.problems = []

let rounds r o ~app ~expected ~label ~targets ~c =
  let t0 = now () in
  let jobs = ref 0 and setups = ref 0 in
  (* The timed set-ups are spread over the run, so that they meet the
     same machine speed as the rounds and the reference samples. *)
  let timed_setup () =
    (match setup_sample o with
    | Ok dt -> sample r "setup_s" dt
    | Error msg -> problem r msg);
    incr setups
  in
  let round () =
    if !setups < setup_runs
       && now () -. t0 >= o.seconds *. float_of_int !setups /. float_of_int setup_runs
    then timed_setup ();
    sample r "reference_s" (reference_sample ~calib:o.calib);
    (* Each stage starts from a collected heap, so that one stage's
       garbage is not collected on the next stage's clock. *)
    Gc.full_major ();
    for _ = 1 to o.spec.app_reps do
      layer_counters r (app_round r o ~app ~expected ~label).res
    done;
    Gc.full_major ();
    for _ = 1 to o.spec.passes do
      operation r (verify_pass r targets)
    done;
    Gc.full_major ();
    for _ = 1 to o.spec.deals do
      let replies = job_batch r c in
      jobs := !jobs + List.length replies;
      List.iter (check_reply r c) replies
    done
  in
  round ();
  while now () < t0 +. o.seconds do
    round ()
  done;
  while !setups < setup_runs do
    timed_setup ()
  done;
  (* The tail needs its samples: top up with job batches. *)
  while !jobs < min_jobs do
    let replies = job_batch r c in
    jobs := !jobs + List.length replies;
    List.iter (check_reply r c) replies
  done

(* Untimed, once per run: each racy variant must be flagged, and a
   TeaLeaf run's every reduced dot product must match the serial CG. *)
let racy_checks r ~app ~expected =
  let flagged label (e : execution) =
    if not (R.has_races e.res || e.res.R.must_errors <> []) then
      problem r (label ^ ": race not flagged")
  in
  flagged "jacobi racy"
    (execute ~racy_jacobi:true ~flavor:F.Must_cusan (Jacobi { nx = 32; ny = 16; iters = 4 }));
  let small = Tealeaf { nx = 16; ny = 16; steps = 1; cg_iters = 2; alpha = 0.1 } in
  let e, _ = allreduce_values ~racy:`Cuda_to_mpi small in
  flagged "tealeaf Cuda_to_mpi" e;
  let e, _ = allreduce_values ~racy:`Mpi_to_cuda small in
  flagged "tealeaf Mpi_to_cuda" e;
  match app with
  | Jacobi _ -> ()
  | Tealeaf _ ->
      let _, got = allreduce_values ~racy:`No app in
      if List.length got <> List.length expected.dots then
        problem r
          (Fmt.str "tealeaf: %d reductions, serial CG makes %d" (List.length got)
             (List.length expected.dots))
      else
        List.iteri
          (fun i (g, w) ->
            if not (Oracle.agrees ~tol:1e-6 g w) then
              problem r (Fmt.str "tealeaf reduction %d: %.17g, serial CG %.17g" i g w))
          (List.combine got expected.dots)

(* --- metrics ---------------------------------------------------------- *)

let med r key = Stats.median (samples r key)
let ms x = x *. 1000.

(* Per-pass mean of a time summed over every pass of the run: single
   calls of the static layers take microseconds. *)
let per_pass r key =
  let xs = samples r key in
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Time metrics as measured, before the machine-speed scaling. *)
let raw_end_to_end r ~setup_s =
  let jobs = samples r "job_s" in
  let p99 =
    match Stats.percentile 99. jobs with
    | Some v -> ms v
    | None -> nan
  in
  [
    ("setup_s", setup_s);
    ("checked_run_s", med r "checked_s");
    ("vanilla_run_s", med r "vanilla_s");
    ("matrix_s", med r "matrix_s");
    ("explore_s", med r "explore_s");
    ("lint_s", med r "lint_s");
    ("job_p50_ms", ms (Stats.median jobs));
    ("job_p99_ms", p99);
  ]

(* The end-to-end metrics at the reference machine speed: a time is
   scaled by [reference_s] over this run's median reference-task time.
   The simulated memory is not a time. *)
let end_to_end_values r ~setup_s =
  let speed = reference_s /. med r "reference_s" in
  ("checked_mem_mb", med r "checked_mem_mb")
  :: List.map (fun (k, v) -> (k, v *. speed)) (raw_end_to_end r ~setup_s)

let per_layer_values r ~app ~expected ~stats ~setup_s =
  let get k = Option.value (Hashtbl.find_opt r.values k) ~default:nan in
  let stat k =
    match Option.bind (Mjson.member "stats" stats) (Mjson.member k) with
    | Some (Mjson.Int n) -> float_of_int n
    | _ -> nan
  in
  let checked = med r "checked_s" and vanilla = med r "vanilla_s" in
  let tsan = med r "tsan_s" and cusan = med r "cusan_s" in
  [
    ("cudasim.exec_s", med r "device_exec_s");
    ("kernel.computed_mb", float_of_int (kernel_bytes app ~expected) /. 1e6);
    ("cudasim.ops", get "cudasim.ops");
    ("sim.host_s", med r "host_s");
    ("sched.switches", get "sched.switches");
    ("mpi.calls", get "mpi.calls");
    ("mpi.nonblocking", get "mpi.nonblocking");
    ("mpi.mb", get "mpi.mb");
    ("mpi.in_call_s", med r "mpi_in_call_s");
    ("tsan.layer_s", tsan -. vanilla);
    ("cusan.layer_s", cusan -. tsan);
    ("must.layer_s", checked -. cusan);
  ]
  @ List.map
      (fun k -> (k, get k))
      [ "tsan.read_ranges"; "tsan.write_ranges"; "tsan.read_mb"; "tsan.write_mb";
        "tsan.uniform_pages"; "tsan.materialized_pages"; "tsan.region_cache_hit_ratio";
        "tsan.fiber_switches"; "tsan.hb"; "tsan.ha"; "must.request_fibers";
        "cusan.kernels"; "cusan.syncs"; "cusan.memcpys" ]
  @ [
      ("gc.minor_mwords", med r "gc_minor_mwords");
      ("gc.major_collections", med r "gc_major");
      ("kir.validate_ms", ms (per_pass r "validate_s"));
      ("cusan.race_analysis_ms", ms (per_pass r "race_s"));
      ("cusan.witness_ms", ms (per_pass r "witness_s"));
      ("cusan.certificate_ms", ms (per_pass r "certificate_s"));
      ("cusan.certcheck_ms", ms (per_pass r "certcheck_s"));
      ("cusan.repair_ms", ms (per_pass r "repair_s"));
      ("cusan.kernel_analysis_ms", ms (med r "kernel_analysis_s"));
      ("harness.empty_run_ms", ms (med r "empty_run_s"));
      ("matrix.case_p50_ms", ms (med r "case_s"));
      ("explore.runs", get "explore.runs");
      ("explore.run_ms", ms (med r "explore_run_s"));
      ("explore.sleep_skips", get "explore.sleep_skips");
      (* The median batch's rate. It is not gated: the rare slow jobs
         swell far more than the rest when the host is contended, and
         the rate spread 0.26-0.31 over ten runs even so. *)
      ("jobs_per_s", med r "batch_rate");
      ("server.engine_ms_p50", ms (med r "engine_s"));
      ("server.overhead_ms_p50", ms (med r "overhead_s"));
      ("server.health_rtt_ms", ms (med r "health_s"));
      ("server.cache_hits", stat "cache_hits");
      ("server.hit_ratio", stat "cache_hits" /. stat "served");
      ("server.journal_appends", stat "journal_appends");
      ("server.compactions", stat "compactions");
      ("trace.overhead_s", med r "traced_s" -. checked);
      ("host.calib_ms", ms (med r "reference_s"));
    ]
  @ List.map (fun (k, v) -> ("raw." ^ k, v)) (raw_end_to_end r ~setup_s)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  raw : (string * float) list;  (** end-to-end times before scaling *)
  reference : float list;  (** the run's reference-task times *)
}

let session o =
  let app = if o.smoke then smoke_app o.spec.app else o.spec.app in
  let expected = expected_of app in
  let label = app_label app in
  let r = create_run () in
  let daemon = ref None in
  Fun.protect ~finally:(fun () -> Option.iter Client.kill !daemon) @@ fun () ->
  let targets, c =
    setup r o ~app ~expected ~label ~dir:(Filename.concat o.run_dir "daemon")
      ~on_daemon:(fun d -> daemon := Some d)
  in
  rounds r o ~app ~expected ~label ~targets ~c;
  let setups = samples r "setup_s" in
  Fmt.epr "perfbench: set-ups took %s ms@."
    (String.concat ", " (List.rev_map (fun dt -> Fmt.str "%.1f" (dt *. 1e3)) setups));
  let setup_s = if setups = [] then nan else Stats.median setups in
  (* Untimed tail: layer probes that need their own runs, then the
     checks, the daemon's counters and its drain. *)
  for _ = 1 to 5 do
    per_call_batch r "health_s" 20 (fun () -> ignore (Client.rpc c.daemon P.Health))
  done;
  if o.trace then
    for _ = 1 to 5 do
      per_call_batch r "empty_run_s" 500 (fun () ->
          ignore (R.run ~nranks ~flavor:F.Must_cusan (fun _ -> ())));
      per_call_batch r "kernel_analysis_s" 200 (fun () ->
          List.iter (fun m -> ignore (Cusan.Kernel_analysis.analyze_module m)) app_modules)
    done;
  racy_checks r ~app ~expected;
  let stats = Client.rpc c.daemon P.Stats in
  if not (Client.stop c.daemon) then problem r "cusand did not drain cleanly";
  daemon := None;
  let lint, soak, repeats = c.kinds in
  Fmt.epr "perfbench: jobs sent: %d lint, %d soak, %d repeats of an earlier digest@." lint
    soak repeats;
  let metrics =
    if o.trace then per_layer_values r ~app ~expected ~stats ~setup_s
    else end_to_end_values r ~setup_s
  in
  List.iter
    (fun (k, v) -> if Float.is_nan v then problem r (k ^ ": no measurement"))
    metrics;
  {
    correct = r.problems = [] && r.failed = 0;
    attempted = r.attempted;
    failed = r.failed;
    metrics;
    raw = (if o.trace then [] else raw_end_to_end r ~setup_s);
    reference = samples r "reference_s";
  }
