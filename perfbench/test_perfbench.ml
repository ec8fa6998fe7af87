(* Tests of the benchmark itself: its statistics, its declarations
   against BENCHMARK.json, and a smoke run of every workload with all
   of its checks.

     test_perfbench.exe [--smoke MAIN_EXE CUSAND_EXE] *)

open Perfbench
module Mjson = Reporting.Mjson

let close a b = Float.abs (a -. b) < 1e-12

let check_floats what want got =
  if List.length want <> List.length got || not (List.for_all2 close want got) then
    Alcotest.failf "%s: want [%s], got [%s]" what
      (String.concat "; " (List.map string_of_float want))
      (String.concat "; " (List.map string_of_float got))

(* Reference values from Python's statistics module. *)
let median_and_quartiles () =
  let xs = [ 3.1; 1.2; 9.9; 4.4; 5.0; 2.2; 7.7 ] in
  check_floats "median odd" [ 4.4 ] [ Stats.median xs ];
  check_floats "median even" [ 2.5 ] [ Stats.median [ 4.0; 1.0; 3.0; 2.0 ] ];
  check_floats "quantiles odd" [ 2.2; 4.4; 7.7 ] (Stats.quantiles xs);
  check_floats "quantiles 1..4" [ 1.25; 2.5; 3.75 ] (Stats.quantiles [ 4.; 2.; 3.; 1. ]);
  check_floats "quantiles 1..10" [ 2.75; 5.5; 8.25 ]
    (Stats.quantiles (List.init 10 (fun i -> float_of_int (i + 1))));
  check_floats "quantiles of two" [ 0.75; 1.5; 2.25 ] (Stats.quantiles [ 2.; 1. ]);
  let q1, q2, q3 = Stats.quartiles xs in
  check_floats "quartiles" [ 2.2; 4.4; 7.7 ] [ q1; q2; q3 ]

let tail_needs_ten_beyond () =
  let n k = List.init k (fun i -> float_of_int i) in
  let some what = function
    | Some _ -> ()
    | None -> Alcotest.failf "%s: expected a value" what
  in
  let none what = function
    | None -> ()
    | Some v -> Alcotest.failf "%s: expected no value, got %g" what v
  in
  some "p99 of 1000" (Stats.percentile 99. (n 1000));
  Alcotest.(check (float 0.)) "p99 of 1000 is the 990th" 989. (Option.get (Stats.percentile 99. (n 1000)));
  none "p99 of 999" (Stats.percentile 99. (n 999));
  none "p99 of 100" (Stats.percentile 99. (n 100));
  some "p90 of 100" (Stats.percentile 90. (n 100));
  none "p90 of 99" (Stats.percentile 90. (n 99))

(* Metric and workload names: a letter or digit, then letters, digits,
   [_], [.] and [-], at most 64 characters. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let names_are_valid () =
  let unit_ok u =
    String.length u >= 1 && String.length u <= 16
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
           | _ -> false)
         u
  in
  List.iter
    (fun (m : Metrics.t) ->
      if not (valid_name m.Metrics.name) then Alcotest.failf "bad metric name %S" m.Metrics.name;
      if not (unit_ok m.Metrics.unit_) then Alcotest.failf "bad unit %S" m.Metrics.unit_)
    Metrics.all;
  List.iter
    (fun (w : Workloads.spec) ->
      if not (valid_name w.Workloads.name) then Alcotest.failf "bad workload name %S" w.Workloads.name)
    Workloads.workloads;
  let names = List.map (fun (m : Metrics.t) -> m.Metrics.name) Metrics.all in
  Alcotest.(check int) "metric names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "invalid names are refused" false
    (List.exists valid_name [ ""; ".x"; "a b"; "a/b"; String.make 65 'a' ])

(* BENCHMARK.json must declare exactly what the program measures. *)
let declarations_match_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = match Mjson.of_string text with Ok d -> d | Error e -> Alcotest.fail e in
  let str k j = Option.get (Option.bind (Mjson.member k j) Mjson.to_str) in
  let list k = Option.get (Option.bind (Mjson.member k doc) Mjson.to_list) in
  let declared kind =
    List.filter_map
      (fun (m : Metrics.t) ->
        match (m.Metrics.kind, kind) with
        | Metrics.End_to_end b, `E2e -> Some (m.Metrics.name, m.Metrics.unit_, Metrics.better_str m.Metrics.better, Some b)
        | Metrics.Per_layer, `Layer -> Some (m.Metrics.name, m.Metrics.unit_, Metrics.better_str m.Metrics.better, None)
        | _ -> None)
      Metrics.all
  in
  let in_json key =
    List.map
      (fun j ->
        ( str "name" j, str "unit" j, str "better" j,
          Option.bind (Mjson.member "bound" j) Mjson.to_float ))
      (list key)
  in
  let show (n, u, b, bound) =
    Fmt.str "%s %s %s %s" n u b (match bound with Some x -> string_of_float x | None -> "-")
  in
  let same what a b =
    Alcotest.(check (list string)) what (List.map show a) (List.map show b)
  in
  same "end_to_end" (declared `E2e) (in_json "end_to_end");
  same "per_layer" (declared `Layer) (in_json "per_layer");
  Alcotest.(check (list (pair string string))) "workloads"
    (List.map (fun (w : Workloads.spec) -> (w.Workloads.name, w.Workloads.why)) Workloads.workloads)
    (List.map (fun j -> (str "name" j, str "why" j)) (list "workloads"))

let serial_references_agree_with_the_apps () =
  (* Cross-check the benchmark's own references against the apps'
     references on small problems, so both sides are exercised. *)
  let j = Oracle.jacobi_norm ~nx:32 ~ny:32 ~iters:20 in
  let a = Apps.Jacobi.reference ~nx:32 ~ny:32 ~iters:20 ~norm_every:10 in
  if not (Oracle.agrees ~tol:1e-12 j a) then Alcotest.failf "jacobi %.17g vs %.17g" j a;
  let cfg = Apps.Tealeaf.config ~nx:16 ~ny:16 ~steps:3 ~cg_iters:6 ~nranks:2 () in
  let dots = Oracle.tealeaf_dots ~nx:16 ~ny:16 ~steps:3 ~cg_iters:6 ~alpha:cfg.Apps.Tealeaf.alpha in
  let last = List.nth dots (List.length dots - 1) in
  let a = Apps.Tealeaf.reference cfg in
  if not (Oracle.agrees ~tol:1e-9 last a) then Alcotest.failf "tealeaf %.17g vs %.17g" last a;
  Alcotest.(check int) "3 steps x (1 + 2 x 6) reductions" 39 (List.length dots)

(* One short run per workload, alternating the two metric sets, through
   the real executable: every check must pass and every declared metric
   must be present. *)
let smoke main cusand () =
  List.iteri
    (fun i (w : Workloads.spec) ->
      let trace = i mod 2 = 1 in
      let out = Filename.temp_file ~temp_dir:"." "perfbench" ".out" in
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let pid =
        Unix.create_process main
          [| main; "--workload"; w.Workloads.name; "--seed"; "3"; "--seconds"; "0";
             "--trace"; (if trace then "1" else "0"); "--cusand"; cusand; "--smoke" |]
          Unix.stdin fd Unix.stderr
      in
      Unix.close fd;
      let _, status = Unix.waitpid [] pid in
      let ic = open_in_bin out in
      let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
      close_in ic;
      Sys.remove out;
      if status <> Unix.WEXITED 0 then Alcotest.failf "%s: main.exe failed" w.Workloads.name;
      let doc =
        match Mjson.of_string (List.nth lines (List.length lines - 1)) with
        | Ok d -> d
        | Error e -> Alcotest.failf "%s: result line: %s" w.Workloads.name e
      in
      let get k = Option.get (Mjson.member k doc) in
      Alcotest.(check (option bool)) (w.Workloads.name ^ " correct") (Some true) (Mjson.to_bool (get "correct"));
      Alcotest.(check (option int)) (w.Workloads.name ^ " failed") (Some 0) (Mjson.to_int (get "failed"));
      let attempted = Option.get (Mjson.to_int (get "attempted")) in
      if attempted < 1 then Alcotest.failf "%s: nothing attempted" w.Workloads.name;
      let keys = match get "metrics" with Mjson.Obj kvs -> List.map fst kvs | _ -> [] in
      let want =
        List.filter_map
          (fun (m : Metrics.t) ->
            match m.Metrics.kind with
            | Metrics.End_to_end _ when not trace -> Some m.Metrics.name
            | Metrics.Per_layer when trace -> Some m.Metrics.name
            | _ -> None)
          Metrics.all
      in
      Alcotest.(check (list string)) (w.Workloads.name ^ " metrics") (List.sort compare want)
        (List.sort compare keys))
    Workloads.workloads

let () =
  let smoke_case =
    match Array.to_list Sys.argv with
    | [ _; "--smoke"; main; cusand ] -> [ Alcotest.test_case "every workload" `Slow (smoke main cusand) ]
    | _ -> []
  in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    ([
       ( "stats",
         [
           Alcotest.test_case "median and quartiles" `Quick median_and_quartiles;
           Alcotest.test_case "tail needs ten samples beyond" `Quick tail_needs_ten_beyond;
         ] );
       ( "declarations",
         [
           Alcotest.test_case "names are valid" `Quick names_are_valid;
           Alcotest.test_case "match BENCHMARK.json" `Quick declarations_match_benchmark_json;
         ] );
       ( "oracle",
         [ Alcotest.test_case "serial references agree" `Quick serial_references_agree_with_the_apps ] );
     ]
    @ if smoke_case = [] then [] else [ ("smoke", smoke_case) ])
