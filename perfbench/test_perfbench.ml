(* Tests for the benchmark's own machinery: seeded inputs, the corpus
   mirror, the request mix, span accounting and the exact-count guards. *)

open Perfbench
module Trace = Fetch_obs.Trace

let check = Alcotest.check

let build jobs = List.map (fun (j : Inputs.job) -> j.build ()) jobs
let small_corpus seed = build (Inputs.corpus_jobs ~scale:0.01 ~seed ())
let small_large seed = build (Inputs.large_jobs ~sizes:[ 40; 70 ] ~seed ())

let small_serve seed =
  Inputs.serve_seq ~seed (build (Inputs.serve_jobs ~n_bases:3 ~seed ()))

let test_seeds () =
  check Alcotest.string "corpus: same seed, same bytes"
    (Inputs.digest (small_corpus 7))
    (Inputs.digest (small_corpus 7));
  check Alcotest.bool "corpus: another seed changes the bytes" true
    (Inputs.digest (small_corpus 7) <> Inputs.digest (small_corpus 8));
  check Alcotest.string "large: same seed, same bytes"
    (Inputs.digest (small_large 7))
    (Inputs.digest (small_large 7));
  check Alcotest.bool "large: another seed changes the bytes" true
    (Inputs.digest (small_large 7) <> Inputs.digest (small_large 8));
  check Alcotest.string "serve: same seed, same requests"
    (Inputs.seq_digest (small_serve 7))
    (Inputs.seq_digest (small_serve 7));
  check Alcotest.bool "serve: another seed changes the requests" true
    (Inputs.seq_digest (small_serve 7) <> Inputs.seq_digest (small_serve 8))

(* With the corpus master seed, the mirror builds the corpus itself. *)
let test_corpus_mirror () =
  let module Corpus = Fetch_eval.Corpus in
  List.iter
    (fun pname ->
      let p = List.find (fun (p : Corpus.project) -> p.pname = pname) Corpus.projects in
      let reference =
        List.map
          (fun (j : Corpus.job) -> (j.build ()).built.raw)
          (Corpus.jobs_selfbuilt ~scale:0.01 ~only:[ pname ] ())
      in
      let mirrored =
        List.concat_map
          (fun c ->
            List.map
              (fun o ->
                (Inputs.corpus_built ~seed:Corpus.master_seed p ~prog:0 c o).raw)
              Fetch_synth.Profile.all_opts)
          [ Fetch_synth.Profile.Synthgcc; Fetch_synth.Profile.Synthllvm ]
      in
      check Alcotest.bool (pname ^ " mirrored byte for byte") true
        (reference = mirrored))
    [ "Glibc-2.27"; "Binutils-2.26" ];
  check Alcotest.int "full corpus size" 1432
    (List.length (Inputs.corpus_jobs ~seed:1 ()))

let test_serve_mix () =
  let s = small_serve 3 in
  check Alcotest.int "bases and re-links" 6 (Array.length s.distinct);
  check Alcotest.int "eight requests per base" 24 (Array.length s.requests);
  (* every distinct binary is first requested in first-sight order *)
  let seen = ref (-1) in
  Array.iter
    (fun d ->
      if d > !seen then begin
        check Alcotest.int "first sight in order" (!seen + 1) d;
        seen := d
      end)
    s.requests;
  let key b = Fetch_serve.Cache.binary_key b.Inputs.raw in
  let eh b =
    match Fetch_elf.Decode.decode b.Inputs.raw with
    | Ok img -> Fetch_serve.Cache.eh_key img
    | Error e -> Alcotest.fail e
  in
  let base = s.distinct.(0) and relink = s.distinct.(1) in
  check Alcotest.bool "re-link changes the file digest" true (key base <> key relink);
  check Alcotest.(option string) "re-link keeps the .eh_frame digest" (eh base) (eh relink)

let span name depth start dur =
  { Trace.name; depth; start_ns = Int64.of_int start; dur_ns = Int64.of_int dur; run = 0; args = [] }

let test_layers () =
  let report =
    {
      Trace.spans =
        [
          span "pipeline" 0 0 100;
          span "recursive" 1 0 40;
          span "xref" 1 40 50;
          span "xref.round" 2 40 45;
          span "recursive.extend" 3 50 10;
          span "lint" 0 100 30;
          span "lint.func-overlap" 1 100 20;
        ];
      counters = [];
      histograms = [];
    }
  in
  let t = Layers.create () in
  check Alcotest.int64 "accounted = outermost spans" 130L (Layers.add t report);
  check Alcotest.int64 "pipeline self" 10L (Layers.self_ns t "pipeline");
  check Alcotest.int64 "recursive incl (stage + extend)" 50L
    (Layers.incl_ns t "pipeline.recursive");
  check Alcotest.int64 "xref incl" 50L (Layers.incl_ns t "pipeline.xref");
  check Alcotest.int64 "xref self excludes extend" 40L (Layers.self_ns t "pipeline.xref");
  check Alcotest.int64 "lint rules fold into lint" 30L (Layers.self_ns t "lint");
  let replay =
    { report with Trace.spans = [ span "loaded.load" 0 0 50; span "height_oracle.build" 0 60 20 ] }
  in
  let t = Layers.create () in
  check Alcotest.int64 "replayed child not double counted" 50L (Layers.add t replay);
  check Alcotest.int64 "parent self excludes replayed child" 30L
    (Layers.self_ns t "loaded.load")

let test_percentile () =
  check (Alcotest.float 1e-9) "median of evens" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  check (Alcotest.float 1e-9) "p90" 9.1 (Stats.percentile (List.init 11 float_of_int) 91.0);
  check (Alcotest.float 1e-9) "empty" 0.0 (Stats.median [])

(* The counts the traced pass reports must repeat exactly for one seed. *)
let test_exact_counts () =
  let bins = small_large 5 in
  let counters () =
    let t =
      Fetch_core.Batch.run ~domains:2 ~lint:true
        (List.map (fun (b : Inputs.binary) -> Fetch_core.Batch.item_of_raw b.id b.raw) bins)
    in
    t.merged.counters
  in
  check Alcotest.bool "batch counters repeat" true (counters () = counters ());
  let seq = small_serve 5 in
  let session () =
    (Serve_client.run [| Sys.executable_name; "--serve-child" |] seq
       ~on_response:(fun _ _ _ -> ()))
      .cache
  in
  let first = session () in
  check Alcotest.bool "stats readable" true (Result.is_ok first);
  check Alcotest.bool "cache counts repeat" true (first = session ())

(* The daemon side of the serve session test: this executable re-entered. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--serve-child" then begin
    Fetch_serve.Serve.run_stdin
      ~config:
        {
          Fetch_serve.Serve.default_config with
          engine =
            { Fetch_serve.Engine.default_config with domains = 1; cache_bytes = 16 * 1024 };
        }
      Unix.stdin Unix.stdout;
    exit 0
  end

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded inputs" `Quick test_seeds;
          Alcotest.test_case "corpus mirror" `Quick test_corpus_mirror;
          Alcotest.test_case "serve mix" `Quick test_serve_mix;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "layer self/inclusive" `Quick test_layers;
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "exact counts" `Quick test_exact_counts;
        ] );
    ]
