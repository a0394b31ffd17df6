(** The repository benchmark: [corpus], [large] and [serve] workloads
    driven through the public entry points users run — {!Fetch_core.Batch.run}
    with lint, and the serve daemon's stdin transport.

    {v
    bench.exe --workload corpus|large|serve --seed N --seconds S --trace 0|1
    v}

    [--trace 0] measures the end-to-end metrics; [--trace 1] runs the
    traced passes and reports the per-layer metrics.  Human-readable
    lines go first; the last line of standard output is one JSON object
    [{"correct":…,"attempted":…,"failed":…,"metrics":{…}}].  The exit
    code is 1 when any output check failed. *)

open Perfbench
module Trace = Fetch_obs.Trace
module Clock = Fetch_obs.Clock
module Batch = Fetch_core.Batch
module Pool = Fetch_par.Pool
module Cache = Fetch_serve.Cache
module Protocol = Fetch_serve.Protocol

(* ---- child processes, this executable re-entered ---- *)

(* A binary's task latency inside the batch: from the start of its task's
   trace run to the end of its last span (load, pipeline, lint). *)
let task_ms (a : Batch.analysis) =
  List.fold_left
    (fun acc (s : Trace.span) -> Int64.max acc (Int64.add s.start_ns s.dur_ns))
    0L a.report.spans
  |> Int64.to_float
  |> fun ns -> ns /. 1e6

(* What a batch unit's child sends back, marshalled on its stdout. *)
type unit_result = {
  wall_s : float;  (** the [Batch.run] call *)
  peak_mb : float;  (** the child's high-water mark *)
  outcomes : (int list * float, string) result list;
      (** per file, in order: detected starts and task latency in ms *)
}

(* bench.exe --batch-child DOMAINS FILE... : one [fetch batch]-style
   [Batch.run ~lint:true] over the files.
   bench.exe --serve-child CACHE_BYTES DOMAINS [CHROME] : the serve
   daemon on stdin/stdout. *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "--batch-child" :: domains :: files ->
      let t, wall_s =
        Clock.time_s (fun () ->
            Batch.run ~domains:(int_of_string domains) ~lint:true
              (List.map Batch.item_of_file files))
      in
      let outcomes =
        List.map
          (function
            | _, Ok (a : Batch.analysis) -> Ok (a.starts, task_ms a)
            | _, Error f -> Error (Pool.failure_to_string f))
          t.results
      in
      Marshal.to_channel stdout { wall_s; peak_mb = Stats.peak_rss_mb (); outcomes } [];
      exit 0
  | _ :: "--serve-child" :: cache :: domains :: chrome ->
      let chrome = match chrome with [ p ] -> Some p | _ -> None in
      Fetch_serve.Serve.run_stdin
        ~config:
          {
            Fetch_serve.Serve.default_config with
            engine =
              {
                Fetch_serve.Engine.default_config with
                cache_bytes = int_of_string cache;
                domains = int_of_string domains;
                capture_reports = chrome <> None;
              };
            trace_chrome_path = chrome;
          }
        Unix.stdin Unix.stdout;
      exit 0
  | _ -> ()

(* ---- command line ---- *)

let workload = ref ""
let seed = ref None
let seconds = ref 10
let traced = ref false
let out_dir = ".perfbench-out"

let () =
  let usage =
    "bench.exe --workload corpus|large|serve --seed N --seconds S --trace 0|1"
  in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " corpus, large or serve");
      ("--seed", Arg.Int (fun s -> seed := Some s), " workload seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), " 1: traced per-layer pass");
    ]
  in
  let bad msg =
    prerr_endline ("error: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align specs) (fun a -> bad ("unexpected " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  if not (List.mem !workload [ "corpus"; "large"; "serve" ]) then
    bad "--workload must be corpus, large or serve";
  if !seed = None then bad "--seed is required";
  if !seconds < 1 then bad "--seconds must be at least 1"

let seed = Option.get !seed
let nproc = Pool.default_domains ()

(* ---- result ---- *)

let metrics = ref []
let metric name unit_ value = metrics := (name, unit_, value) :: !metrics
let attempted = ref 0
let failed = ref 0

(* An operation failed or an output check did not hold: the run is
   incorrect and [failed] counts it. *)
let problem fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      Printf.eprintf "CHECK FAILED: %s\n%!" s)
    fmt

let finish () =
  let metrics = List.rev !metrics in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then problem "metric %s is not finite" name)
    metrics;
  print_endline "";
  List.iter
    (fun (name, unit_, v) -> Printf.printf "%-36s %16.6f %s\n" name v unit_)
    metrics;
  let correct = !failed = 0 in
  let json_metric (name, unit_, v) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Fetch_util.Json.escape name)
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      (Fetch_util.Json.escape unit_)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 !attempted) (min !failed (max 1 !attempted))
    (String.concat "," (List.map json_metric metrics));
  exit (if correct then 0 else 1)

let per_op total_ns n =
  if n = 0 then 0.0 else Int64.to_float total_ns /. 1e6 /. float_of_int n

let counter counters name = Option.value ~default:0 (List.assoc_opt name counters)

let counter_sum counters prefix =
  List.fold_left
    (fun acc (n, v) -> if String.starts_with ~prefix n then acc + v else acc)
    0 counters

let write_chrome name (r : Trace.report) =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" name seed)
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Fetch_obs.Report.chrome_trace r));
  Printf.printf "chrome trace: %s\n" path

(* ---- set-up ---- *)

(* Build the inputs three times (five for the quick serve set-up, once for
   a traced run): every build must reproduce the same bytes; [setup_s] is
   the median build time. *)
let setup build digest =
  let repeats = if !traced then 1 else if !workload = "serve" then 5 else 3 in
  let rec go i times digests last =
    if i = repeats then (Option.get last, List.rev times, List.rev digests)
    else begin
      Gc.full_major ();
      let x, dt = Clock.time_s build in
      let d = digest x in
      go (i + 1) (dt :: times) (d :: digests) (Some x)
    end
  in
  let x, times, digests = go 0 [] [] None in
  List.iter
    (fun d ->
      if d <> List.hd digests then
        problem "set-up is not deterministic: input digest %s then %s"
          (List.hd digests) d)
    digests;
  Printf.printf "inputs: seed %d, digest %s, set-up %s s\n%!" seed
    (List.hd digests)
    (String.concat " / " (List.map (Printf.sprintf "%.3f") times));
  metric "setup_s" "s" (Stats.median times);
  x

let build_all (jobs : Inputs.job list) =
  Pool.with_pool ~domains:nproc (fun pool ->
      Pool.map pool ~label:(fun _ (j : Inputs.job) -> j.job_id)
        (fun (j : Inputs.job) -> j.build ())
        jobs)
  |> List.map (function
       | Ok b -> b
       | Error f -> failwith ("input build failed: " ^ Pool.failure_to_string f))

(* ---- detection quality ---- *)

let score pairs =
  let correct = ref 0 and reported = ref 0 and expected = ref 0 in
  List.iter
    (fun ((truth : Fetch_synth.Truth.t), starts) ->
      let m = Fetch_eval.Metrics.score truth starts in
      reported := !reported + m.n_detected;
      expected := !expected + m.n_true;
      correct := !correct + (m.n_detected - List.length m.fp))
    pairs;
  metric "precision" "ratio" (float_of_int !correct /. float_of_int !reported);
  metric "recall" "ratio" (float_of_int !correct /. float_of_int !expected)

let ok_share () =
  let a = max 1 !attempted in
  metric "ok_share" "ratio" (float_of_int (max 0 (a - !failed)) /. float_of_int a)

(* ---- per-layer output ---- *)

let count_metrics =
  [
    "recursive.insns_decoded";
    "xref.candidates_scanned";
    "xref.accepted";
    "xref.rounds";
    "xref.reject.invalid_opcode";
    "xref.reject.mid_instruction";
    "xref.reject.into_function";
    "xref.reject.callconv";
    "xref.known_entries_skipped";
    "xref.reject_cache_hits";
    "tailcall.merges";
    "check.dataflow.steps";
  ]

let serve_layer name = String.starts_with ~prefix:"serve." name

(* Layer table and per-layer metrics: analysis layers per analyzed
   binary, serve.* layers per request. *)
let layer_metrics layers ~analyzed ~requests ~wall_ns ~counters =
  let n_for name = if serve_layer name then requests else analyzed in
  Printf.printf "\n%-30s %12s %12s %8s\n" "layer (ms per op)" "inclusive" "self"
    "self %";
  let accounted = ref 0L in
  List.iter
    (fun name ->
      let self = Layers.self_ns layers name in
      accounted := Int64.add !accounted self;
      Printf.printf "%-30s %12.4f %12.4f %7.1f%%\n" name
        (per_op (Layers.incl_ns layers name) (n_for name))
        (per_op self (n_for name))
        (100.0 *. Int64.to_float self /. Int64.to_float (max 1L wall_ns)))
    (Layers.names layers);
  Printf.printf "self times sum to %.3f s of %.3f s measured (%.1f%%)\n"
    (Int64.to_float !accounted /. 1e9)
    (Int64.to_float wall_ns /. 1e9)
    (100.0 *. Int64.to_float !accounted /. Int64.to_float (max 1L wall_ns));
  List.iter
    (fun name ->
      let n = n_for name in
      metric (name ^ ".ms") "ms" (per_op (Layers.incl_ns layers name) n);
      metric (name ^ ".self_ms") "ms" (per_op (Layers.self_ns layers name) n))
    Layers.reported;
  let c = counter counters in
  List.iter (fun name -> metric name "count" (float_of_int (c name))) count_metrics;
  metric "lint.findings" "count" (float_of_int (counter_sum counters "lint.findings."));
  let rec_ns =
    Int64.to_float (Layers.self_ns layers "pipeline.recursive")
  in
  let insns = c "recursive.insns_decoded" in
  metric "recursive.ns_per_insn" "ns"
    (if insns = 0 then 0.0 else rec_ns /. float_of_int insns);
  let scanned = c "xref.candidates_scanned" in
  metric "xref.accept_ratio" "ratio"
    (if scanned = 0 then 0.0
     else float_of_int (c "xref.accepted") /. float_of_int scanned);
  !accounted

(* ---- batch workloads: corpus and large ---- *)

let starts_of (t : Batch.t) =
  List.map
    (fun (_, o) -> match o with Ok (a : Batch.analysis) -> Some a.starts | Error _ -> None)
    t.results

let batch_failures label (t : Batch.t) =
  List.iter
    (fun (id, o) ->
      match o with
      | Ok _ -> ()
      | Error f -> problem "%s: %s failed: %s" label id f.Pool.f_exn)
    t.results

let run_batch ~domains items = Clock.time_s (fun () -> Batch.run ~domains ~lint:true items)

(* Set-up's binaries as files, which is how [fetch batch] takes them;
   removed when the benchmark exits. *)
let write_inputs (bins : Inputs.binary array) =
  let dir = Filename.concat out_dir ("inputs-" ^ !workload) in
  let clear () =
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  clear ();
  at_exit (fun () -> try clear (); Sys.rmdir dir with Sys_error _ -> ());
  Array.mapi
    (fun i (b : Inputs.binary) ->
      let path = Filename.concat dir (Printf.sprintf "%04d.elf" i) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc b.raw);
      path)
    bins

(* One unit in a fresh child process: one [Batch.run] over [paths] at
   [nproc] domains, as one [fetch batch] call. *)
let run_unit paths =
  let argv =
    Array.of_list (Sys.executable_name :: "--batch-child" :: string_of_int nproc :: paths)
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let status = ref None in
  let result =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        status := Some (snd (Unix.waitpid [] pid)))
      (fun () -> (Marshal.from_channel ic : unit_result))
  in
  if !status <> Some (Unix.WEXITED 0) then failwith "batch child exited abnormally";
  result

(* corpus units: 8 chunks of the inputs, as indices.  corpus jobs cycle
   through the 8 compiler profiles: stagger the deal so every chunk gets
   every profile. *)
let chunks n_chunks n =
  List.init n_chunks (fun c ->
      List.filter (fun i -> (i + (i / n_chunks)) mod n_chunks = c) (List.init n Fun.id))

(* The timed phase runs the units round-robin until [--seconds] have
   passed and every unit ran at least once.  Every figure is a median
   over repetitions — a unit's wall time, a binary's task latency, a
   unit's peak RSS — so a burst of host contention moves a few samples,
   not the result. *)
let batch_timed units (bins : Inputs.binary list) =
  let bins = Array.of_list bins in
  let n = Array.length bins in
  let paths = write_inputs bins in
  let units = Array.of_list units in
  let n_units = Array.length units in
  let walls = Array.make n_units [] and peaks = Array.make n_units [] in
  let lat = Array.make n [] and first = Array.make n None in
  let record i = function
    | Error e -> problem "%s failed: %s" bins.(i).id e
    | Ok (starts, ms) -> (
        lat.(i) <- ms :: lat.(i);
        match first.(i) with
        | None -> first.(i) <- Some starts
        | Some s0 -> if s0 <> starts then problem "%s: starts differ between runs" bins.(i).id)
  in
  let t_start = Clock.now_s () in
  let k = ref 0 in
  while !k < n_units || Clock.now_s () -. t_start < float_of_int !seconds do
    let c = !k mod n_units in
    attempted := !attempted + List.length units.(c);
    (match run_unit (List.map (fun i -> paths.(i)) units.(c)) with
    | r ->
        List.iter2 record units.(c) r.outcomes;
        walls.(c) <- r.wall_s :: walls.(c);
        peaks.(c) <- r.peak_mb :: peaks.(c)
    | exception e -> problem "unit %d: %s" c (Printexc.to_string e));
    incr k
  done;
  let unit_wall = Array.map Stats.median walls in
  Printf.printf "%d unit runs in %.3f s; median wall per unit: %s s
" !k
    (Clock.now_s () -. t_start)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") unit_wall)));
  metric "binaries_per_s" "1/s" (float_of_int n /. Array.fold_left ( +. ) 0.0 unit_wall);
  let per_binary = Array.to_list (Array.map Stats.median lat) in
  metric "p50_ms" "ms" (Stats.percentile per_binary 50.0);
  metric "p90_ms" "ms" (Stats.percentile per_binary 90.0);
  let all_lat = List.concat (Array.to_list lat) in
  Printf.printf "per-binary latency: %d samples, p99 %.3f ms (not gated)
"
    (List.length all_lat) (Stats.percentile all_lat 99.0);
  metric "peak_rss_mb" "MiB" (Array.fold_left Float.max 0.0 (Array.map Stats.median peaks));
  score
    (List.filter_map
       (fun i -> Option.map (fun s -> (bins.(i).truth, s)) first.(i))
       (List.init n Fun.id));
  ok_share ()

let decode_exn id raw =
  match Fetch_elf.Decode.decode raw with
  | Ok img -> img
  | Error e -> failwith (Printf.sprintf "%s: ELF decode failed: %s" id e)

(* The traced item: the same work as [Batch.item_of_raw], split into
   spans at the public calls it is made of. *)
let traced_item (b : Inputs.binary) =
  {
    Batch.id = b.id;
    load =
      (fun () ->
        let img = Trace.span "elf.decode" (fun () -> decode_exn b.id b.raw) in
        let eh = Trace.span "eh_frame.decode" (fun () -> Fetch_dwarf.Eh_frame.of_image img) in
        Trace.span "loaded.load" (fun () -> Fetch_analysis.Loaded.load ~eh img));
  }

(* Height_oracle.create runs inside Loaded.load; replay it per binary,
   outside the traced pass, to split it out of loaded.load. *)
let replay_oracle (b : Inputs.binary) =
  let eh = Fetch_dwarf.Eh_frame.of_image (decode_exn b.id b.raw) in
  snd
    (Trace.with_run (fun () ->
         Trace.span "height_oracle.build" (fun () ->
             ignore (Fetch_dwarf.Height_oracle.create eh.cies))))

let zero_metrics names = List.iter (fun (n, u) -> metric n u 0.0) names

let serve_only_metrics =
  [
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.eh_hits", "count");
    ("cache.evictions", "count");
    ("serve.residual_ms", "ms");
    ("serve.hit_p50_ms", "ms");
    ("serve.hit_p90_ms", "ms");
    ("serve.miss_p50_ms", "ms");
    ("serve.miss_p90_ms", "ms");
  ]

(* One pass of the traced run, reduced to what the checks and metrics
   need so earlier passes do not grow the heap later ones collect. *)
type pass = {
  wall : float;
  starts : int list option list;
  counters : (string * int) list;
  reports : (string * Trace.report) list;  (** kept for the traced pass *)
}

let pass ~label ~domains ?(keep = false) items =
  Gc.compact ();
  let t, wall = run_batch ~domains items in
  batch_failures label t;
  Printf.printf "%-22s %d domain(s): %.3f s\n%!" label t.domains wall;
  {
    wall;
    starts = starts_of t;
    counters = t.merged.counters;
    reports =
      (if keep then
         List.filter_map
           (fun (id, o) ->
             match o with Ok (a : Batch.analysis) -> Some (id, a.report) | Error _ -> None)
           t.results
       else []);
  }

let batch_traced (bins : Inputs.binary list) =
  let items = List.map (fun (b : Inputs.binary) -> Batch.item_of_raw b.id b.raw) bins in
  let n = List.length items in
  let a = pass ~label:"untraced" ~domains:nproc items in
  let b = pass ~label:"untraced" ~domains:1 items in
  let c = pass ~label:"traced" ~domains:1 ~keep:true (List.map traced_item bins) in
  attempted := 3 * n;
  if b.starts <> a.starts then problem "1-domain starts differ from %d-domain starts" nproc;
  if c.starts <> a.starts then problem "traced starts differ from untraced starts";
  if c.counters <> a.counters then problem "traced counters differ from untraced counters";
  let replays = List.map (fun (bin : Inputs.binary) -> (bin.id, replay_oracle bin)) bins in
  let layers = Layers.create () in
  List.iter (fun (_, r) -> ignore (Layers.add layers r)) (c.reports @ replays);
  let wall_ns = Int64.of_float (c.wall *. 1e9) in
  let accounted =
    layer_metrics layers ~analyzed:n ~requests:0 ~wall_ns ~counters:c.counters
  in
  let accounted_ratio = Int64.to_float accounted /. Int64.to_float wall_ns in
  metric "batch.residual_ms" "ms" (per_op (Int64.sub wall_ns accounted) n);
  metric "pool.speedup" "ratio" (b.wall /. a.wall);
  metric "trace.overhead_ratio" "ratio" (c.wall /. b.wall);
  metric "trace.accounted_ratio" "ratio" accounted_ratio;
  zero_metrics serve_only_metrics;
  write_chrome !workload
    (Trace.merge (List.map (fun (id, r) -> Layers.annotate ~id r) (c.reports @ replays)))

(* ---- serve ---- *)

let serve_domains = max 1 (nproc - 1)

(* Smaller than the working set (every base and re-link, their payloads
   and .eh_frame entries), larger than the recent window repeats draw
   from: evictions happen and repeats still hit. *)
let cache_bytes = 128 * 1024

(* The daemon runs in a child process: this executable re-entered with
   [--serve-child] (see the top of this file). *)
let daemon ?chrome () =
  Array.of_list
    ([ Sys.executable_name; "--serve-child"; string_of_int cache_bytes;
       string_of_int serve_domains ]
    @ Option.to_list chrome)

let id_prefix k = Printf.sprintf {|{"id":%d,|} k

(* Every response, minus its echoed id, must be the same bytes each time
   its binary is requested; [tails.(d)] keeps the first seen. *)
let response_checker (seq : Inputs.serve_seq) =
  let tails = Array.make (Array.length seq.distinct) None in
  let check k d response =
    let p = id_prefix k in
    if not (String.starts_with ~prefix:p response) then
      problem "request %d: response does not echo its id: %s" k
        (String.sub response 0 (min 80 (String.length response)))
    else
      let tail =
        String.sub response (String.length p) (String.length response - String.length p)
      in
      match tails.(d) with
      | None -> tails.(d) <- Some tail
      | Some t -> if t <> tail then problem "request %d: response differs from earlier response for %s" k seq.distinct.(d).id
  in
  (tails, check)

(* What the daemon must answer for [raw], rendered fresh. *)
let fresh_tail raw =
  let payload =
    match Fetch_core.Pipeline.run_bytes raw with
    | Ok r -> Fetch_core.Summary.to_json (Fetch_core.Summary.of_result r)
    | Error e -> failwith ("fresh analysis failed: " ^ e)
  in
  let full = Protocol.ok_response ~id:(Some (Fetch_util.Json.Num 0.0)) ~want:Protocol.want_all payload in
  let p = id_prefix 0 in
  String.sub full (String.length p) (String.length full - String.length p)

let starts_of_tail tail =
  match Fetch_util.Json.parse ("{" ^ tail) with
  | Ok j -> (
      match Option.bind (Fetch_util.Json.member "starts" j) Fetch_util.Json.to_list with
      | Some l -> Some (List.filter_map Fetch_util.Json.to_int l)
      | None -> None)
  | Error _ -> None

(* After the timed phase: each distinct binary's response against a
   fresh Summary of the same bytes, and detection quality. *)
let verify_serve (seq : Inputs.serve_seq) tails =
  let expected =
    Pool.with_pool ~domains:nproc (fun pool ->
        Pool.map pool (fun (b : Inputs.binary) -> fresh_tail b.raw) (Array.to_list seq.distinct))
  in
  let pairs = ref [] in
  List.iteri
    (fun d e ->
      let b = seq.distinct.(d) in
      match (e, tails.(d)) with
      | Error f, _ -> problem "%s: fresh analysis raised %s" b.id f.Pool.f_exn
      | Ok _, None -> problem "%s: never answered" b.id
      | Ok e, Some t ->
          if e <> t then problem "%s: served response differs from a fresh Summary" b.id;
          (match starts_of_tail t with
          | Some s -> pairs := (b.truth, s) :: !pairs
          | None -> problem "%s: response carries no starts" b.id))
    expected;
  score (List.rev !pairs)

let serve_inputs () =
  let jobs = Inputs.serve_jobs ~seed () in
  setup (fun () -> Inputs.serve_seq ~seed (build_all jobs)) Inputs.seq_digest

let session_counts label (o : Serve_client.outcome) =
  match o.cache with
  | Ok c -> Some c
  | Error e ->
      problem "%s: %s" label e;
      None

(* Sessions (a fresh daemon each, the whole request sequence once) run
   until [--seconds] have passed; rates, percentiles and the daemon's peak
   RSS are per session, reported as the median over sessions.  The
   percentiles are over repeat requests, which the cache answers: a
   miss's response waits for the dispatch loop's 5 ms poll tick, so miss
   latencies come in whole ticks and their percentiles jump a tick when
   the host's speed shifts.  Misses still weigh on [binaries_per_s]; the
   traced run splits hit and miss percentiles. *)
let serve_timed (seq : Inputs.serve_seq) =
  let n = Array.length seq.requests in
  let repeat =
    let seen = Array.make (Array.length seq.distinct) false in
    Array.map
      (fun d ->
        let r = seen.(d) in
        seen.(d) <- true;
        r)
      seq.requests
  in
  let tails, check = response_checker seq in
  let t_start = Clock.now_s () in
  let rates = ref [] and p50s = ref [] and p90s = ref [] and peaks = ref [] in
  let all_rtt = ref [] and counts = ref None in
  while !rates = [] || Clock.now_s () -. t_start < float_of_int !seconds do
    let o = Serve_client.run (daemon ()) seq ~on_response:check in
    attempted := !attempted + n;
    let rtt = Array.to_list o.rtt_ms in
    all_rtt := rtt @ !all_rtt;
    rates := (float_of_int n /. o.wall_s) :: !rates;
    let repeats = List.filteri (fun k _ -> repeat.(k)) rtt in
    p50s := Stats.percentile repeats 50.0 :: !p50s;
    p90s := Stats.percentile repeats 90.0 :: !p90s;
    peaks := o.peak_rss_mb :: !peaks;
    (match (session_counts "session" o, !counts) with
    | Some c, None -> counts := Some c
    | Some c, Some c0 -> if c <> c0 then problem "cache counts differ between sessions"
    | None, _ -> ());
    Printf.printf "session %d: %d requests in %.3f s, daemon peak RSS %.1f MiB\n%!"
      (List.length !rates) n o.wall_s o.peak_rss_mb
  done;
  (match !counts with
  | Some c ->
      Printf.printf "cache per session: %d hits, %d misses, %d eh hits, %d evictions\n"
        c.hits c.misses c.eh_hits c.evictions
  | None -> ());
  metric "binaries_per_s" "1/s" (Stats.median !rates);
  metric "p50_ms" "ms" (Stats.median !p50s);
  metric "p90_ms" "ms" (Stats.median !p90s);
  Printf.printf "round trip: %d samples, p99 %.3f ms (not gated)\n" (List.length !all_rtt)
    (Stats.percentile !all_rtt 99.0);
  metric "peak_rss_mb" "MiB" (Stats.median !peaks);
  verify_serve seq tails;
  ok_share ()

let span = Trace.span

(* Replay Engine.submit_analyze's steps for one request line against the
   benchmark's own cache, one span per layer.  Returns whether the
   request hit the result level, and the rendered response. *)
let replay_request cache k line b64 =
  ignore (span "serve.json_parse" (fun () -> Fetch_util.Json.parse line));
  ignore (span "serve.b64" (fun () -> Fetch_util.B64.decode b64));
  let id, want, bytes =
    match span "serve.parse" (fun () -> Protocol.parse_request line) with
    | Ok { id; op = Protocol.Analyze { source = `Bytes b; want; _ } } -> (id, want, b)
    | _ -> failwith (Printf.sprintf "request %d does not parse" k)
  in
  let key = span "serve.digest" (fun () -> Cache.binary_key bytes) in
  match span "serve.cache_find" (fun () -> Cache.find cache key) with
  | Some payload ->
      (true, span "serve.render" (fun () -> Protocol.ok_response ~id ~want payload))
  | None ->
      let img = span "elf.decode" (fun () -> decode_exn (string_of_int k) bytes) in
      let eh_key, cached =
        span "serve.cache_find" (fun () ->
            match Cache.eh_key img with
            | None -> (None, None)
            | Some ek -> (Some ek, Cache.find_eh cache ek))
      in
      let eh =
        match cached with
        | Some eh -> eh
        | None -> span "eh_frame.decode" (fun () -> Fetch_dwarf.Eh_frame.of_image img)
      in
      span "height_oracle.build" (fun () -> ignore (Fetch_dwarf.Height_oracle.create eh.cies));
      let loaded = span "loaded.load" (fun () -> Fetch_analysis.Loaded.load ~eh img) in
      let r = Fetch_core.Pipeline.run_loaded loaded in
      let payload =
        span "summary" (fun () -> Fetch_core.Summary.to_json (Fetch_core.Summary.of_result r))
      in
      span "serve.cache_add" (fun () ->
          Cache.add cache key payload;
          match (eh_key, cached) with
          | Some ek, None ->
              let size =
                match Fetch_elf.Image.section img ".eh_frame" with
                | Some s -> String.length s.data
                | None -> 0
              in
              Cache.add_eh cache ek ~size r.eh_frame
          | _ -> ());
      (false, span "serve.render" (fun () -> Protocol.ok_response ~id ~want payload))

let serve_traced (seq : Inputs.serve_seq) =
  let n = Array.length seq.requests in
  let tails, check = response_checker seq in
  let u = Serve_client.run (daemon ()) seq ~on_response:check in
  Printf.printf "untraced session: %d requests in %.3f s\n%!" n u.wall_s;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let chrome =
    Filename.concat out_dir (Printf.sprintf "serve-seed%d.engine.trace.json" seed)
  in
  let t =
    Serve_client.run (daemon ~chrome ()) seq ~on_response:check
  in
  Printf.printf "traced session:   %d requests in %.3f s (engine trace: %s)\n%!" n t.wall_s
    chrome;
  attempted := 2 * n;
  let cu = session_counts "untraced session" u and ct = session_counts "traced session" t in
  if cu <> ct then problem "cache counts differ between the untraced and traced sessions";
  (* replay *)
  let cache = Cache.create ~max_bytes:cache_bytes in
  let layers = Layers.create () in
  let hit = Array.make n false and accounted = Array.make n 0L in
  let reports =
    List.mapi
      (fun k d ->
        let line = Inputs.request_line k seq.b64.(d) in
        let (h, response), r =
          Trace.with_run (fun () -> replay_request cache k line seq.b64.(d))
        in
        hit.(k) <- h;
        accounted.(k) <- Layers.add layers r;
        (match tails.(d) with
        | Some tail when response = id_prefix k ^ tail -> ()
        | _ -> problem "request %d: replayed response differs from the served one" k);
        Layers.annotate ~id:(string_of_int k) r)
      (Array.to_list seq.requests)
  in
  let rs = Cache.stats cache in
  let replay_counts =
    { Serve_client.hits = rs.hits; misses = rs.misses; eh_hits = rs.eh_hits; evictions = rs.evictions }
  in
  if cu <> Some replay_counts then problem "replayed cache counts differ from the daemon's";
  let misses = Array.fold_left (fun acc h -> if h then acc else acc + 1) 0 hit in
  let merged = Trace.merge reports in
  let total_accounted = Array.fold_left Int64.add 0L accounted in
  let rtt_ns = Array.fold_left (fun acc ms -> acc +. (ms *. 1e6)) 0.0 u.rtt_ms in
  ignore
    (layer_metrics layers ~analyzed:misses ~requests:n
       ~wall_ns:(Int64.of_float rtt_ns) ~counters:merged.counters);
  metric "batch.residual_ms" "ms" 0.0;
  metric "pool.speedup" "ratio" 0.0;
  metric "trace.overhead_ratio" "ratio" (t.wall_s /. u.wall_s);
  metric "trace.accounted_ratio" "ratio" (Int64.to_float total_accounted /. rtt_ns);
  let c = Option.value cu ~default:replay_counts in
  metric "cache.hits" "count" (float_of_int c.hits);
  metric "cache.misses" "count" (float_of_int c.misses);
  metric "cache.eh_hits" "count" (float_of_int c.eh_hits);
  metric "cache.evictions" "count" (float_of_int c.evictions);
  let residual =
    Array.to_list (Array.mapi (fun k ms -> ms -. (Int64.to_float accounted.(k) /. 1e6)) u.rtt_ms)
  in
  metric "serve.residual_ms" "ms" (List.fold_left ( +. ) 0.0 residual /. float_of_int n);
  let split want = List.filteri (fun k _ -> hit.(k) = want) (Array.to_list u.rtt_ms) in
  let hits = split true and miss = split false in
  metric "serve.hit_p50_ms" "ms" (Stats.percentile hits 50.0);
  metric "serve.hit_p90_ms" "ms" (Stats.percentile hits 90.0);
  metric "serve.miss_p50_ms" "ms" (Stats.percentile miss 50.0);
  metric "serve.miss_p90_ms" "ms" (Stats.percentile miss 90.0);
  Printf.printf "hits: %d, p99 %.3f ms; misses: %d, p99 %.3f ms (p99 not gated)\n"
    (List.length hits) (Stats.percentile hits 99.0) (List.length miss)
    (Stats.percentile miss 99.0);
  write_chrome "serve" merged

(* ---- main ---- *)

let () =
  Printf.printf "perfbench: workload %s, seed %d, %d s, trace %b, %d domains, OCaml %s\n%!"
    !workload seed !seconds !traced nproc Sys.ocaml_version;
  (match !workload with
  | "serve" ->
      let seq = serve_inputs () in
      if !traced then serve_traced seq else serve_timed seq
  | w ->
      let jobs =
        if w = "corpus" then Inputs.corpus_jobs ~seed () else Inputs.large_jobs ~seed ()
      in
      let bins = setup (fun () -> build_all jobs) Inputs.digest in
      if !traced then batch_traced bins
      else
        let n = List.length bins in
        (* large is one unit: its heaviest binary is over a quarter of the
           work, so a smaller unit holding it would wait on it alone *)
        batch_timed (if w = "corpus" then chunks 8 n else [ List.init n Fun.id ]) bins);
  if !traced then
    (* the trace pass reports only per-layer metrics *)
    metrics := List.filter (fun (n, _, _) -> n <> "setup_s") !metrics;
  finish ()
