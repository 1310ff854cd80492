(* serve-mixed: a closed loop of two client connections against one
   `mutexlb serve` whose store is pre-filled during set-up. Most
   requests are warm certifies (store reads, Http, the warm path); a
   steady minority are cold certifies on fresh seeds, which write to
   the store while reads go on; a few are small check jobs. *)

open Perfbench_lib
open Common
module Json = Lb_util.Json
module Client = Lb_serve.Client

let clients = 2

(* (algo, n, perms): pre-filled, then answered from the store *)
let warm_shape = [ ("yang_anderson", 8, 16); ("bakery", 6, 16); ("filter", 5, 16) ]
let cold_algo = "yang_anderson"
let cold_n = 10
let cold_perms = 4
let check_algos = [ "peterson2"; "dekker" ]

type kind = Warm of int | Cold of int * int  (** client, index *) | Check of string

let warm_seed ctx i = (ctx.seed * 10) + i
let cold_seed ctx c i = (((ctx.seed * 10) + c) * 1_000_000) + i

let certify_job ~algo ~n ~perms ~seed =
  Json.Obj
    [
      ("kind", Json.String "certify");
      ("algo", Json.String algo);
      ("n", Json.Int n);
      ("perms", Json.Int perms);
      ("seed", Json.Int seed);
    ]

let job ctx = function
  | Warm i ->
    let algo, n, perms = List.nth warm_shape i in
    certify_job ~algo ~n ~perms ~seed:(warm_seed ctx i)
  | Cold (c, i) ->
    certify_job ~algo:cold_algo ~n:cold_n ~perms:cold_perms ~seed:(cold_seed ctx c i)
  | Check algo ->
    Json.Obj [ ("kind", Json.String "check"); ("algo", Json.String algo); ("n", Json.Int 2) ]

let key = function
  | Warm i -> Printf.sprintf "warm %d" i
  | Cold (c, i) -> Printf.sprintf "cold c%d#%d" c i
  | Check algo -> "check " ^ algo

(* ------------------------------ server ------------------------------ *)

type server = { pid : int; port : int; store_dir : string }

let start_server ctx =
  let store_dir = fresh_dir ctx "serve-store" in
  let port_file = store_dir ^ ".port" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [| mutexlb; "serve"; "--store"; store_dir; "--port"; "0"; "--port-file"; port_file;
       "--rate"; "1e9"; "--burst"; "1e9"; "--jobs"; string_of_int ctx.jobs; "--grace"; "5" |]
  in
  let pid = Unix.create_process mutexlb args devnull devnull devnull in
  Unix.close devnull;
  let deadline = now () +. 30.0 in
  let rec wait_port () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid -> failwith "serve: the server exited during start-up"
    | _ ->
      if Sys.file_exists port_file then
        int_of_string (String.trim (In_channel.with_open_text port_file In_channel.input_all))
      else if now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "serve: the server never wrote its port"
      end
      else begin
        Unix.sleepf 0.01;
        wait_port ()
      end
  in
  { pid; port = wait_port (); store_dir }

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 15.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | p, _ when p = s.pid -> ()
    | _ when now () > deadline ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ ->
      Unix.sleepf 0.01;
      reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  rm_rf s.store_dir

(* ------------------------------ requests ---------------------------- *)

type sample = {
  kind : kind;
  t_send : float;
  t_accepted : float option;
  t_granted : float option;
  t_final : float;
  status : int;
  path : string option;  (** "warm" or "swept" for certifies *)
  output : string option;  (** what the answer is checked on *)
  ok : bool;  (** a 200 with a result, no error, not drained *)
}

let check_text report =
  let field name = Option.bind (Json.member name report) Json.as_int in
  match (Option.bind (Json.member "verdict" report) Json.as_string, field "states", field "transitions") with
  | Some v, Some s, Some t -> Some (Printf.sprintf "%s states=%d transitions=%d" v s t)
  | _ -> None

let output_of kind result =
  match kind with
  | Warm _ | Cold _ -> (
    let text =
      Option.bind (Json.member "certificate" result) (fun c ->
          Option.bind (Json.member "text" c) Json.as_string)
    in
    match (kind, text) with
    | Cold _, Some t -> Some (Digest.to_hex (Digest.string t))
    | _, t -> t)
  | Check _ -> (
    match Option.bind (Json.member "reports" result) Json.as_list with
    | Some [ r ] -> check_text r
    | _ -> None)

let submit ctx ~port ~client kind =
  let events = ref [] in
  let t_send = now () in
  let on_event j =
    match Option.bind (Json.member "event" j) Json.as_string with
    | Some e -> events := (e, now ()) :: !events
    | None -> events := ("body", now ()) :: !events  (* a plain error body *)
  in
  let r = Client.submit ~port ~client:(Printf.sprintf "c%d" client) (job ctx kind) ~on_event in
  let t_end = now () in
  let at e = List.assoc_opt e !events in
  let t_final = match !events with (_, t) :: _ -> t | [] -> t_end in
  match r with
  | Error _ ->
    { kind; t_send; t_accepted = None; t_granted = None; t_final; status = 0; path = None;
      output = None; ok = false }
  | Ok o ->
    let result = o.Client.o_result in
    let path = Option.bind result (fun j -> Option.bind (Json.member "path" j) Json.as_string) in
    let result_ok =
      match Option.bind result (fun j -> Option.bind (Json.member "ok" j) Json.as_bool) with
      | Some b -> b
      | None -> false
    in
    {
      kind;
      t_send;
      t_accepted = at "accepted";
      t_granted = at "granted";
      t_final;
      status = o.Client.o_status;
      path;
      output = Option.bind result (output_of kind);
      ok =
        o.Client.o_status = 200 && result <> None && result_ok && o.Client.o_error = None
        && not o.Client.o_drained;
    }

(* Stream [c]'s requests: a pure function of the seed. A traced run's
   second phase uses streams [clients ..], so its colds are fresh too. *)
let client_loop ctx ~port ~deadline ~on_done c =
  let rng = Lb_util.Rng.create ((ctx.seed * 31) + c) in
  let rec go cold acc =
    if now () >= deadline then List.rev acc
    else
      let x = Lb_util.Rng.float rng in
      let kind, cold =
        if x < 0.80 then (Warm (Lb_util.Rng.int rng (List.length warm_shape)), cold)
        else if x < 0.95 then (Cold (c, cold), cold + 1)
        else (Check (List.nth check_algos (Lb_util.Rng.int rng (List.length check_algos))), cold)
      in
      let s = submit ctx ~port ~client:(c mod clients) kind in
      on_done ();
      go cold (s :: acc)
  in
  go 0 []

(* Returns the samples, grouped by the whole one-second window they
   completed in; the median over windows moves less under a passing
   stall than the run's mean rate would. *)
let closed_loop ctx ~port ~seconds ~phase ~on_done =
  let t0 = now () in
  let samples =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            client_loop ctx ~port ~deadline:(t0 +. seconds) ~on_done ((phase * clients) + c)))
    |> List.concat_map Domain.join
  in
  let windows = Array.make (max 1 (int_of_float seconds)) [] in
  List.iter
    (fun s ->
      let w = int_of_float (s.t_final -. t0) in
      if w >= 0 && w < Array.length windows then windows.(w) <- s :: windows.(w))
    samples;
  (samples, Array.to_list windows)

(* Peak RSS of client and server, read once [rss_requests] requests
   have completed: a fixed amount of work, like the batch workloads'. *)
let rss_requests = 300

let rss_probe server_pid =
  let count = Atomic.make 0 and kb = Atomic.make 0 in
  let read () = peak_rss_kb "self" + peak_rss_kb (string_of_int server_pid) in
  let on_done () = if Atomic.fetch_and_add count 1 + 1 = rss_requests then Atomic.set kb (read ()) in
  (on_done, fun () -> if Atomic.get kb > 0 then Atomic.get kb else read ())

(* ------------------------------ oracle ------------------------------ *)

let cert_of ~algo ~n ~perms ~seed ~jobs =
  let a = Lb_algos.Registry.find_exn algo in
  let perms = Lb_serve.Protocol.clamp_perms ~n perms in
  let pis, exhaustive = Lb_serve.Protocol.family ~n ~perms ~seed in
  certificate_text (Lb_core.Pipeline.certify a ~n ~perms:pis ~exhaustive ~jobs ())

let oracle ctx kind =
  match kind with
  | Warm i ->
    let algo, n, perms = List.nth warm_shape i in
    cert_of ~algo ~n ~perms ~seed:(warm_seed ctx i) ~jobs:ctx.jobs
  | Cold (c, i) ->
    Digest.to_hex
      (Digest.string
         (cert_of ~algo:cold_algo ~n:cold_n ~perms:cold_perms ~seed:(cold_seed ctx c i) ~jobs:ctx.jobs))
  | Check algo ->
    let module MC = Lb_mutex.Model_check in
    let r = MC.explore ~jobs:1 (Lb_algos.Registry.find_exn algo) ~n:2 in
    Printf.sprintf "%s states=%d transitions=%d"
      (if r.MC.verdict = MC.Verified then "verified" else "not verified")
      r.MC.states r.MC.transitions

(* ------------------------------ the run ----------------------------- *)

let prefill ctx s =
  List.iteri
    (fun i _ ->
      let r = submit ctx ~port:s.port ~client:0 (Warm i) in
      if not (r.ok && r.path = Some "swept") then failwith "serve: pre-fill failed")
    warm_shape

(* Lookups the warm path makes, timed from here: every warm family's
   keys, once. *)
let lookup_pass ctx tr s =
  let store = Lb_store.Store.open_ ~dir:s.store_dir in
  List.iteri
    (fun i (name, n, perms) ->
      let algo = Lb_algos.Registry.find_exn name in
      let fp = Lb_store.Store_key.fingerprint algo ~n in
      let pis, _ = Lb_serve.Protocol.family ~n ~perms ~seed:(warm_seed ctx i) in
      List.iter
        (fun pi ->
          let key = Lb_store.Store_key.derive ~fp ~algo:name ~n ~pi ~model:Lb_store.Store_key.sc_model in
          match Span.with_ tr ~unit_id:(Printf.sprintf "warm %d" i) "store.lookup" (fun _ -> Lb_store.Store.lookup store ~key) with
          | `Hit _ -> ()
          | `Absent | `Damaged _ -> failwith "serve: a pre-filled entry is missing")
        pis)
    warm_shape

let span_of_sample tr i s =
  let unit_id = Printf.sprintf "req%d %s" i (key s.kind) in
  let parent = Span.add tr ~unit_id ~start:s.t_send ~stop:s.t_final "request" in
  let child name a b =
    match (a, b) with
    | Some a, Some b -> ignore (Span.add tr ~parent ~unit_id ~start:a ~stop:b name)
    | _ -> ()
  in
  child "http.accept" (Some s.t_send) s.t_accepted;
  child "scheduler.wait" s.t_accepted s.t_granted;
  child "server.compute" s.t_granted (Some s.t_final)

let run ctx =
  let server, setups =
    setup_repeated ~times:5 ~teardown:stop_server ~setup:(fun () ->
        let s = start_server ctx in
        (try prefill ctx s with e -> stop_server s; raise e);
        s)
  in
  let measured =
    Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
    let on_done, rss_kb = rss_probe server.pid in
    let untraced, windows_u =
      closed_loop ctx ~port:server.port ~phase:0 ~on_done
        ~seconds:(if ctx.trace then ctx.seconds /. 2.0 else ctx.seconds)
    in
    let traced =
      if not ctx.trace then None
      else begin
        let samples, windows =
          closed_loop ctx ~port:server.port ~phase:1 ~on_done ~seconds:(ctx.seconds /. 2.0)
        in
        List.iteri (span_of_sample ctx.spans) samples;
        let mark = Span.mark ctx.spans in
        lookup_pass ctx ctx.spans server;
        let lookup_s =
          List.fold_left (fun a sp -> a +. Span.duration sp) 0.0 (Span.since ctx.spans mark)
        in
        Some (samples, windows, lookup_s)
      end
    in
    (untraced, windows_u, traced, rss_kb ())
  in
  let untraced, windows, traced, rss_kb = measured in
  let req_per_s =
    Stats.median (List.map (fun w -> float_of_int (List.length w)) windows)
  in
  let all_samples = untraced @ (match traced with Some (s, _, _) -> s | None -> []) in
  let outputs =
    List.filter_map (fun s -> Option.map (fun o -> (key s.kind, o)) s.output) all_samples
  in
  (* the same key must always get the same answer *)
  let outputs = List.sort_uniq compare outputs in
  let kinds = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace kinds (key s.kind) s.kind) all_samples;
  let oracle_of k =
    match Hashtbl.find_opt kinds k with Some kind -> oracle ctx kind | None -> "unknown key"
  in
  if ctx.write_expected then begin
    (* commit the answers for far more requests than a run makes *)
    let planned =
      List.init (List.length warm_shape) (fun i -> Warm i)
      @ List.map (fun a -> Check a) check_algos
      @ List.concat (List.init clients (fun c -> List.init 400 (fun i -> Cold (c, i))))
    in
    write_expected ctx (List.map (fun k -> (key k, oracle ctx k)) planned)
  end;
  let mismatches = verify ctx ~outputs ~oracle:oracle_of in
  let failed = List.filter (fun s -> not s.ok) all_samples in
  let lat ss = List.map (fun s -> (s.t_final -. s.t_send) *. 1000.0) ss in
  let ms a b = match (a, b) with Some a, Some b -> Some ((b -. a) *. 1000.0) | _ -> None in
  let layers =
    match traced with
    | None -> []
    | Some (samples, _, lookup_s) ->
      let med l = median_or_zero l in
      let scheduled = List.filter (fun s -> s.t_granted <> None) samples in
      let warm = List.filter (fun s -> s.path = Some "warm") samples in
      [
        ("http.accept_ms", med (List.filter_map (fun s -> ms (Some s.t_send) s.t_accepted) scheduled), "ms");
        ("scheduler.wait_ms", med (List.filter_map (fun s -> ms s.t_accepted s.t_granted) scheduled), "ms");
        ("server.compute_ms", med (List.filter_map (fun s -> ms s.t_granted (Some s.t_final)) scheduled), "ms");
        ("server.warm_ms", med (lat warm), "ms");
        ( "server.warm_share",
          float_of_int (List.length warm) /. float_of_int (max 1 (List.length samples)),
          "ratio" );
        ("scheduler.rejected", float_of_int (List.length (List.filter (fun s -> s.status = 429) samples)), "count");
        ("store.lookup_self_s", lookup_s, "s");
        ("trace.overhead_s", (med (lat samples) -. med (lat untraced)) /. 1000.0, "s");
      ]
  in
  {
    correct = mismatches = [];
    attempted = List.length all_samples;
    failed = List.length failed;
    setups;
    work_per_s = req_per_s;
    latency_groups = List.map lat windows;
    report = [ ("req_per_s", req_per_s, "1/s") ];
    counters = [];
    layers;
    workers = 1;
    peak_rss_kb = rss_kb;
  }
