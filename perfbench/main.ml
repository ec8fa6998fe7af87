(* perfbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --cusand PATH [--smoke] [--setup-only]

   Progress and check failures go to stderr; the last line of stdout is
   the result: {"correct", "attempted", "failed", "metrics"}, with the
   end-to-end metrics under --trace 0 and the per-layer metrics under
   --trace 1. Usage errors exit 2 and print no result. With
   --setup-only the process sets up, prints "ready" and exits: the run
   times such processes for setup_s. calib.exe, the reference task, is
   found next to this executable. *)

open Perfbench
module Mjson = Reporting.Mjson

let usage () =
  Fmt.epr
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --cusand \
     PATH [--smoke] [--setup-only]@.workloads: %s@."
    (String.concat ", " (List.map (fun s -> s.Workloads.name) Workloads.workloads));
  exit 2

let die fmt = Fmt.kstr (fun s -> Fmt.epr "perfbench: %s@." s; exit 2) fmt

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and cusand = ref None and smoke = ref false in
  let setup_only = ref false in
  let int_arg flag v =
    match int_of_string_opt v with Some n when n >= 0 -> n | _ -> die "%s expects a non-negative integer, got %S" flag v
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); parse rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s >= 0. -> seconds := Some s; parse rest
        | _ -> die "--seconds expects a non-negative number, got %S" v)
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--trace" :: v :: _ -> die "--trace expects 0 or 1, got %S" v
    | "--cusand" :: v :: rest -> cusand := Some v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ -> die "unknown or incomplete argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let need name = function Some v -> v | None -> die "missing %s" name in
  let name = need "--workload" !workload in
  let spec =
    match Workloads.find name with
    | Some s -> s
    | None -> die "unknown workload %S" name
  in
  let cusand = need "--cusand" !cusand in
  if not (Sys.file_exists cusand) then die "no cusand binary at %s" cusand;
  let calib = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  if not (Sys.file_exists calib) then die "no calib.exe at %s" calib;
  let trace = need "--trace" !trace in
  let run_dir = Fmt.str ".perfbench_run/%d" (Unix.getpid ()) in
  let o =
    { Workloads.spec; seed = need "--seed" !seed; seconds = need "--seconds" !seconds;
      trace; smoke = !smoke; setup_only = !setup_only; cusand; calib; run_dir }
  in
  (* A terminating signal unwinds through the session's clean-up, which
     stops the daemon it started. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Exit)))
    [ Sys.sigterm; Sys.sigint ];
  let in_run_dir f =
    Fun.protect
      ~finally:(fun () ->
        Client.rm_rf run_dir;
        try Unix.rmdir (Filename.dirname run_dir) with Unix.Unix_error _ -> ())
      f
  in
  if o.Workloads.setup_only then exit (if in_run_dir (fun () -> Workloads.setup_only o) then 0 else 1);
  let res = in_run_dir (fun () -> Workloads.session o) in
  let declared =
    List.filter
      (fun (m : Metrics.t) ->
        match m.Metrics.kind with Metrics.End_to_end _ -> not trace | Metrics.Per_layer -> trace)
      Metrics.all
  in
  let emitted = List.map fst res.Workloads.metrics in
  List.iter
    (fun (m : Metrics.t) ->
      if not (List.mem m.Metrics.name emitted) then die "internal: %s not measured" m.Metrics.name)
    declared;
  let metrics =
    List.map
      (fun (k, v) ->
        match Metrics.find k with
        | None -> die "internal: undeclared metric %s" k
        | Some m ->
            (match List.assoc_opt k res.Workloads.raw with
            | Some raw -> Fmt.epr "  %-28s %14.6g %-6s (as measured %.6g)@." k v m.Metrics.unit_ raw
            | None -> Fmt.epr "  %-28s %14.6g %s@." k v m.Metrics.unit_);
            (k, Mjson.Obj [ ("value", Mjson.Float v); ("unit", Mjson.Str m.Metrics.unit_) ]))
      res.Workloads.metrics
  in
  (match res.Workloads.reference with
  | _ :: _ :: _ as xs ->
      let q1, q2, q3 = Stats.quartiles xs in
      Fmt.epr "perfbench: reference task %.3f ms (quartiles %.3f, %.3f; n=%d)%s@."
        (q2 *. 1e3) (q1 *. 1e3) (q3 *. 1e3) (List.length xs)
        (if trace then "" else Fmt.str ": times scaled by %.3f" (Workloads.reference_s /. q2))
  | _ -> ());
  Fmt.epr "perfbench: %s: %d operations, %d failed, correct=%b@." name
    res.Workloads.attempted res.Workloads.failed res.Workloads.correct;
  print_endline
    (Mjson.to_string
       (Mjson.Obj
          [
            ("correct", Mjson.Bool res.Workloads.correct);
            ("attempted", Mjson.Int res.Workloads.attempted);
            ("failed", Mjson.Int res.Workloads.failed);
            ("metrics", Mjson.Obj metrics);
          ]))
