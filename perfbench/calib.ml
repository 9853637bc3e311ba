(* Host-speed probe for the benchmark (see run.py).

   A fixed amount of work that shares no code with the repository — float
   array arithmetic, allocation and minor collections, sorting and hashing,
   the mix the workloads spend their time in — timed in-process.  On a host
   whose speed drifts with other tenants' load, the ratio of a workload's
   time to this probe's time, taken right before and after it, stays
   steady where the raw time does not.  Prints the elapsed wall seconds. *)

let () =
  let n = 96 in
  let a = Array.init (n * n) (fun i -> float_of_int (i mod 7) *. 0.5) in
  let b = Array.init (n * n) (fun i -> float_of_int (i mod 5) *. 0.25) in
  let c = Array.make (n * n) 0. in
  let h = Hashtbl.create 1024 in
  let start = Unix.gettimeofday () in
  for rep = 1 to 40 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let s = ref 0. in
        for k = 0 to n - 1 do
          s := !s +. (a.((i * n) + k) *. b.((k * n) + j))
        done;
        c.((i * n) + j) <- !s
      done
    done;
    List.init 20000 (fun i -> ((i * 7919) + rep) mod 10007)
    |> List.sort compare
    |> List.iter (fun x -> Hashtbl.replace h x (float_of_int x))
  done;
  let elapsed = Unix.gettimeofday () -. start in
  (* Print a result of the work so it cannot be optimised away. *)
  Printf.printf "%.9f %g %d\n" elapsed c.(n + 1) (Hashtbl.length h)
