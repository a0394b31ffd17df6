(** One closed-loop client session against a serve daemon process: the
    daemon ({!Fetch_serve.Serve.run_stdin} in a child process) reads
    request lines from a pipe and writes responses to another; the
    client writes one request line, waits for its response line, and
    only then sends the next. *)

module Clock = Fetch_obs.Clock
module Json = Fetch_util.Json

type reader = { fd : Unix.file_descr; chunk : Bytes.t; mutable pending : string }

let rec read_line r =
  match String.index_opt r.pending '\n' with
  | Some i ->
      let line = String.sub r.pending 0 i in
      r.pending <- String.sub r.pending (i + 1) (String.length r.pending - i - 1);
      line
  | None ->
      let n = Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) in
      if n = 0 then failwith "serve daemon closed its output early";
      r.pending <- r.pending ^ Bytes.sub_string r.chunk 0 n;
      read_line r

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(** Result-cache counters from the in-band [stats] request. *)
type cache_counts = { hits : int; misses : int; eh_hits : int; evictions : int }

let cache_counts_of_stats line =
  let field k =
    match Json.parse line with
    | Ok j ->
        Option.bind (Json.member "stats" j) (Json.member "cache")
        |> Fun.flip Option.bind (Json.member k)
        |> Fun.flip Option.bind Json.to_int
    | Error _ -> None
  in
  match (field "hits", field "misses", field "eh_hits", field "evictions") with
  | Some hits, Some misses, Some eh_hits, Some evictions ->
      Ok { hits; misses; eh_hits; evictions }
  | _ -> Error ("unreadable stats response: " ^ line)

type outcome = {
  rtt_ms : float array;  (** per request: line written → response read *)
  wall_s : float;  (** first write → last response *)
  cache : (cache_counts, string) result;
  peak_rss_mb : float;  (** the daemon's high-water mark *)
}

(** [run argv seq ~on_response] starts the daemon as [argv], sends every
    request of [seq] once, in order, calling [on_response k d response]
    after request [k]'s response arrives (outside its timing window),
    asks for the stats, reads the daemon's peak RSS, then closes its
    input and waits for it to exit. *)
let run (argv : string array) (seq : Inputs.serve_seq) ~on_response =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  let reader = { fd = resp_r; chunk = Bytes.create 65536; pending = "" } in
  let closed = ref false in
  let close_requests () =
    if not !closed then begin
      closed := true;
      Unix.close req_w
    end
  in
  let status = ref None in
  Fun.protect
    ~finally:(fun () ->
      close_requests ();
      Unix.close resp_r;
      if !status = None then status := Some (snd (Unix.waitpid [] pid)))
    (fun () ->
      let n = Array.length seq.requests in
      let rtt_ms = Array.make n 0.0 in
      let t0 = Clock.now_ns () in
      Array.iteri
        (fun k d ->
          let line = Inputs.request_line k seq.b64.(d) ^ "\n" in
          let sent = Clock.now_ns () in
          write_all req_w line;
          let response = read_line reader in
          rtt_ms.(k) <- Int64.to_float (Clock.elapsed_ns sent) /. 1e6;
          on_response k d response)
        seq.requests;
      let wall_s = Int64.to_float (Clock.elapsed_ns t0) /. 1e9 in
      write_all req_w "{\"op\":\"stats\",\"id\":\"stats\"}\n";
      let cache = cache_counts_of_stats (read_line reader) in
      let peak_rss_mb = Stats.peak_rss_mb ~pid () in
      close_requests ();
      status := Some (snd (Unix.waitpid [] pid));
      if !status <> Some (Unix.WEXITED 0) then failwith "serve daemon exited abnormally";
      { rtt_ms; wall_s; cache; peak_rss_mb })
