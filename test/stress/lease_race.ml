(* Multi-process stress of the store's writer lease: do two processes
   ever hold it at once?

     dune exec test/stress/lease_race.exe -- [K] [TRIALS] [HOLD_MS]

   Each trial opens a fresh store, has a child process take the writer
   lease and exit without releasing it (a dead holder), then releases K
   breakers at one instant. Each breaker makes one attempt; a winner
   records when it got the lease, holds it for HOLD_MS milliseconds and
   releases it. A trial overlaps when two winners' holding intervals
   intersect. Defaults: K=2, 400 trials, 50 ms. It depends on timing
   and runs for tens of seconds, so it stays out of the test suite.
   The process spawns no domains, so [Unix.fork] is safe. *)

module Lock = Lb_store.Store_lock

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let in_child f =
  match Unix.fork () with
  | 0 ->
    (try f () with _ -> ());
    Unix._exit 0
  | pid -> pid

let trial ~k ~hold =
  let dir = Filename.temp_file "lease_race" "" in
  Sys.remove dir;
  let st = Lb_store.Store.open_ ~dir in
  (* the dead holder: take the lease and exit without releasing it *)
  ignore
    (Unix.waitpid []
       (in_child (fun () ->
            ignore (Lock.try_acquire_writer st ~purpose:"crashed"))));
  let start = Unix.gettimeofday () +. 0.05 in
  let out i = Filename.concat dir (Printf.sprintf "held.%d" i) in
  let breakers =
    List.init k (fun i ->
        in_child (fun () ->
            while Unix.gettimeofday () < start do () done;
            match Lock.try_acquire_writer st ~purpose:"breaker" with
            | Error _ -> ()
            | Ok w ->
              let t0 = Unix.gettimeofday () in
              Unix.sleepf hold;
              let t1 = Unix.gettimeofday () in
              Lock.release_writer w;
              Out_channel.with_open_bin (out i) (fun oc ->
                  Printf.fprintf oc "%.6f %.6f" t0 t1)))
  in
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) breakers;
  let held =
    List.init k out
    |> List.filter Sys.file_exists
    |> List.map (fun path ->
           Scanf.sscanf (In_channel.with_open_bin path In_channel.input_all)
             "%f %f" (fun t0 t1 -> (t0, t1)))
  in
  rm_rf dir;
  let rec overlap = function
    | [] -> false
    | (a0, a1) :: rest ->
      List.exists (fun (b0, b1) -> a0 < b1 && b0 < a1) rest || overlap rest
  in
  (List.length held, overlap held)

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let k = arg 1 2 and trials = arg 2 400 and hold_ms = arg 3 50 in
  let overlapping = ref 0 and no_winner = ref 0 in
  for _ = 1 to trials do
    let winners, overlap = trial ~k ~hold:(float_of_int hold_ms /. 1000.) in
    if overlap then incr overlapping;
    if winners = 0 then incr no_winner
  done;
  Printf.printf
    "K=%d trials=%d hold=%dms: %d trials with overlapping holders, %d with no \
     winner\n"
    k trials hold_ms !overlapping !no_winner
