(* Serial reference computations the benchmark checks the simulated
   runs against. They are written here from the problem statement, not
   taken from the apps' own [reference] functions, so a bug shared by an
   app and its reference cannot hide. Results agree with the
   distributed runs up to summation order. *)

(* Relative agreement within a summation-order tolerance. *)
let agrees ?(tol = 1e-7) a b =
  Float.is_finite a && Float.is_finite b
  && Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* Jacobi on an nx × (ny + 2) grid: row 0 held at 1.0, the other
   borders at 0.0, [iters] sweeps of the 4-point average over the
   interior. Returns the L2 norm of the last sweep's update. *)
let jacobi_norm ~nx ~ny ~iters =
  let idx x y = (y * nx) + x in
  let cur = ref (Array.init (nx * (ny + 2)) (fun c -> if c < nx then 1. else 0.)) in
  let next = ref (Array.copy !cur) in
  let norm = ref nan in
  for it = 1 to iters do
    let a = !cur and b = !next in
    for y = 1 to ny do
      for x = 1 to nx - 2 do
        b.(idx x y) <-
          (a.(idx (x - 1) y) +. a.(idx (x + 1) y) +. a.(idx x (y - 1))
         +. a.(idx x (y + 1)))
          /. 4.
      done
    done;
    if it = iters then begin
      let s = ref 0. in
      for y = 1 to ny do
        for x = 0 to nx - 1 do
          let d = b.(idx x y) -. a.(idx x y) in
          s := !s +. (d *. d)
        done
      done;
      norm := sqrt !s
    end;
    cur := b;
    next := a
  done;
  !norm

(* TeaLeaf: each of [steps] implicit timesteps solves
   (I + alpha * L) u' = u by at most [cg_iters] conjugate-gradient
   iterations (stopping early once r.r <= 1e-24), where L is the 5-point
   Laplacian on the interior of an nx × (ny + 2) grid and the border
   keeps its initial value. The initial field is 2.0 on the middle half
   in both directions and 0.5 elsewhere. Returns every global dot
   product in the order the solver reduces them: r.r at the start of a
   step, then p.Ap and the new r.r per iteration. *)
let tealeaf_dots ~nx ~ny ~steps ~cg_iters ~alpha =
  let rows = ny + 2 in
  let n = nx * rows in
  let inside c =
    let x = c mod nx and y = c / nx in
    x >= 1 && x <= nx - 2 && y >= 1 && y <= ny
  in
  let u =
    Array.init n (fun c ->
        let x = c mod nx and y = c / nx in
        if x >= nx / 4 && x < 3 * nx / 4 && y >= rows / 4 && y < 3 * rows / 4
        then 2.
        else 0.5)
  in
  let lap v c = v.(c - 1) +. v.(c + 1) +. v.(c - nx) +. v.(c + nx) in
  let dot a b =
    let s = ref 0. in
    for c = 0 to n - 1 do
      if inside c then s := !s +. (a.(c) *. b.(c))
    done;
    !s
  in
  let dots = ref [] in
  let reduce x =
    dots := x :: !dots;
    x
  in
  let r = Array.make n 0. and p = Array.make n 0. and ap = Array.make n 0. in
  for _ = 1 to steps do
    let b = Array.copy u in
    for c = 0 to n - 1 do
      r.(c) <-
        (if inside c then b.(c) -. ((1. +. (4. *. alpha)) *. u.(c)) +. (alpha *. lap u c)
         else 0.);
      p.(c) <- r.(c)
    done;
    let rr = ref (reduce (dot r r)) in
    let k = ref 0 in
    while !k < cg_iters && !rr > 1e-24 do
      incr k;
      for c = 0 to n - 1 do
        ap.(c) <-
          (if inside c then ((1. +. (4. *. alpha)) *. p.(c)) -. (alpha *. lap p c)
           else 0.)
      done;
      let pap = reduce (dot p ap) in
      let step = !rr /. pap in
      for c = 0 to n - 1 do
        if inside c then begin
          u.(c) <- u.(c) +. (step *. p.(c));
          r.(c) <- r.(c) -. (step *. ap.(c))
        end
      done;
      let rr' = reduce (dot r r) in
      let beta = rr' /. !rr in
      rr := rr';
      for c = 0 to n - 1 do
        if inside c then p.(c) <- r.(c) +. (beta *. p.(c))
      done
    done
  done;
  List.rev !dots
