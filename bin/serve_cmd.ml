(* serve: the long-lived job service (Lb_serve.Server). *)

open Cmdliner
open Common

let serve_cmd =
  let store_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Store directory the service owns. Created if absent. Concurrent \
             $(b,mutexlb certify --store) runs against the same directory are \
             safe: the server registers as a reader and takes the writer \
             lease only while a sweep is running.")
  in
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR"
          ~doc:"Address to bind. This is a local service; keep it loopback.")
  in
  let port_arg =
    Arg.(
      value
      & opt int 8944
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on. $(b,0) picks an ephemeral port.")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound port here (atomically) once listening — how \
             scripts find an ephemeral port.")
  in
  let max_active_arg =
    Arg.(
      value
      & opt int 1
      & info [ "max-active" ] ~docv:"N"
          ~doc:"Jobs running concurrently across all clients.")
  in
  let per_client_arg =
    Arg.(
      value
      & opt int 1
      & info [ "per-client" ] ~docv:"N"
          ~doc:"Running-job cap per client (the fairness knob).")
  in
  let rate_arg =
    Arg.(
      value
      & opt float 4.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Token-bucket refill rate, jobs/second/client. Submissions over \
             the rate are answered 429 with a Retry-After hint.")
  in
  let burst_arg =
    Arg.(
      value
      & opt float 8.0
      & info [ "burst" ] ~docv:"B" ~doc:"Token-bucket capacity per client.")
  in
  let grace_arg =
    Arg.(
      value
      & opt float 20.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Drain deadline: on SIGTERM, running sweeps get this long to \
             checkpoint before the cooperative cancel fires.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log each request to standard error.")
  in
  let run store host port port_file jobs max_active per_client rate burst grace
      verbose =
    apply_jobs jobs;
    if max_active < 1 || per_client < 1 then
      usage ~cmd:"serve" "--max-active and --per-client must be >= 1";
    if rate <= 0.0 || burst < 1.0 then
      usage ~cmd:"serve" "--rate must be > 0 and --burst >= 1";
    let sched = { Lb_serve.Scheduler.max_active; per_client; rate; burst } in
    let config =
      {
        Lb_serve.Server.host;
        port;
        port_file;
        store_dir = store;
        jobs;
        sched;
        grace;
        verbose;
      }
    in
    Lb_serve.Server.run config
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived job service: accept certify/check/lint/chaos/\
          mutate jobs from multiple clients over local HTTP, schedule them \
          fairly, stream progress as JSONL, and serve warm results straight \
          from the store. SIGTERM drains gracefully: running sweeps \
          checkpoint and the store is left resumable."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "POST a job to $(b,/v1/jobs) (one JSON object; see DESIGN.md \
              \xc2\xa76i for the grammar) and read the chunked JSONL event \
              stream: $(b,accepted), $(b,granted), sweep telemetry, then one \
              of $(b,result), $(b,drained) or $(b,error). $(b,GET /v1/health) \
              and $(b,GET /v1/stats) answer plain JSON.";
           `P
             "Scheduling is round-robin across client identities (the \
              $(b,X-Client) header) with a per-client running cap and a \
              token-bucket admission rate, so a chatty client cannot starve \
              a quiet one.";
           `P
             "Certify jobs whose whole permutation family is already in the \
              store are answered from it without taking a scheduler slot, \
              byte-identical to what $(b,mutexlb certify) would print.";
         ])
    Term.(
      const run $ store_arg $ host_arg $ port_arg $ port_file_arg $ jobs_arg
      $ max_active_arg $ per_client_arg $ rate_arg $ burst_arg $ grace_arg
      $ verbose_arg)
