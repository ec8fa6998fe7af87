(* The reference task whose time tells how fast the host runs right
   now. It links no library of the repository and every sample runs in
   a fresh process of its own, so no change to the repository can move
   it: not through shared code, nor through the heap or the GC state of
   the process being measured.

     calib.exe

   Runs the task once and prints its wall time in seconds. The task has
   three parts, each standing for a kind of work the benchmark times:
   compute (a float stencil, hash-table inserts, a list sort), system
   calls (one-byte round trips through a pipe within the process), and
   wake-ups across processes (one-byte ping-pong with a forked child, as
   between the benchmark and its daemon). Together they followed the
   host's slowdowns better than any one part alone. *)

let stencil ~n ~iters =
  let a = Array.make (n * n) 0. and b = Array.make (n * n) 0. in
  for x = 0 to n - 1 do
    a.(x) <- 1.;
    b.(x) <- 1.
  done;
  let src = ref a and dst = ref b in
  for _ = 1 to iters do
    let s = !src and d = !dst in
    for y = 1 to n - 2 do
      for x = 1 to n - 2 do
        let i = (y * n) + x in
        d.(i) <- (s.(i - 1) +. s.(i + 1) +. s.(i - n) +. s.(i + n)) /. 4.
      done
    done;
    src := d;
    dst := s
  done;
  !src.((n / 2 * n) + (n / 2))

let compute () =
  let centre = stencil ~n:48 ~iters:10 in
  let h = Hashtbl.create 16 in
  for i = 1 to 10_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) i
  done;
  let l = List.sort compare (List.init 10_000 (fun i -> i * 7919 mod 100_003)) in
  Sys.opaque_identity (centre, Hashtbl.length h, List.length l)

let self_pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  let b = Bytes.create 1 in
  for _ = 1 to 5_000 do
    ignore (Unix.write w b 0 1);
    ignore (Unix.read r b 0 1)
  done;
  Unix.close r;
  Unix.close w

let ping_pong () =
  let r1, w1 = Unix.pipe () and r2, w2 = Unix.pipe () in
  let b = Bytes.create 1 in
  match Unix.fork () with
  | 0 ->
      for _ = 1 to 500 do
        ignore (Unix.read r1 b 0 1);
        ignore (Unix.write w2 b 0 1)
      done;
      Unix._exit 0
  | pid ->
      for _ = 1 to 500 do
        ignore (Unix.write w1 b 0 1);
        ignore (Unix.read r2 b 0 1)
      done;
      ignore (Unix.waitpid [] pid);
      List.iter Unix.close [ r1; w1; r2; w2 ]

let () =
  let t0 = Unix.gettimeofday () in
  ignore (compute ());
  self_pipe ();
  ping_pong ();
  Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)
