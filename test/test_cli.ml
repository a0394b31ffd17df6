(* CLI-level tests for `fetch lint` and `fetch rules`: exit-code gating
   (--fail-on) and JSONL output shape.  Runs the real executable
   (argv.(1), wired up by the dune rule) against binaries synthesized
   in-process, so the checks cover argument parsing, serialization and
   the process exit path that the unit tests bypass.  argv.(2) is the
   pinned `fetch rules --json` output for the cfi-broken scenario at
   seed 31.

   The exit-code checks are self-consistent — the expected code is
   recomputed from the findings the same invocation printed — plus one
   binary built with broken FDEs so the warning gate is exercised
   non-vacuously. *)

module Json = Fetch_util.Json

let fetch, rules_cfi_broken_pinned =
  if Array.length Sys.argv < 3 then begin
    prerr_endline "usage: test_cli FETCH_EXE RULES_CFI_BROKEN_JSONL";
    exit 2
  end
  else (Sys.argv.(1), Sys.argv.(2))

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   %s\n" name
  else begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save (built : Fetch_synth.Link.built) =
  let path = Filename.temp_file "fetch_cli" ".elf" in
  let oc = open_out_bin path in
  output_string oc built.raw;
  close_out oc;
  path

let profile =
  Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc Fetch_synth.Profile.O2

let write_binary ~seed spec = save (Fetch_synth.Link.build_random ~profile ~seed spec)

(* A binary guaranteed to lint with a Warning: an unreferenced function
   behind a hand-broken FDE.  The FDE start points into the
   callconv-violating pre-entry bytes, so the seed is rejected; nothing
   else references the function, so its whole range stays undecoded —
   `fde-unreached` at Warning severity from both `lint` and `rules`. *)
let write_warning_binary ~seed =
  let rng = Fetch_util.Prng.create seed in
  let prog =
    Fetch_synth.Gen.program rng profile
      { Fetch_synth.Gen.default_spec with n_funcs = 15 }
  in
  let orphan =
    Fetch_synth.Ir.make_func ~name:"orphan" ~params:1 ~is_assembly:true
      ~emit_fde:true ~broken_fde:true ~align:16 ~endbr:false
      [ Fetch_synth.Ir.Compute 3; Fetch_synth.Ir.Return ]
  in
  let prog =
    { prog with Fetch_synth.Ir.funcs = prog.Fetch_synth.Ir.funcs @ [ orphan ] }
  in
  save (Fetch_synth.Link.build ~profile ~rng prog)

(* stderr is dropped: --stats prints the report to stdout and the
   lint/rules commands only use stderr for hard errors, which the exit
   code already surfaces. *)
let run args =
  let out = Filename.temp_file "fetch_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2>/dev/null" (Filename.quote fetch) args
         (Filename.quote out))
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> l <> "")

(* ---- JSONL shape: every line is one finding object ---- *)

type counts = { errors : int; warnings : int; infos : int }

let check_jsonl tool path =
  let code, text = run (Printf.sprintf "%s %s --json --fail-on never" tool path) in
  check (tool ^ ": --fail-on never exits 0") (code = 0);
  let counts = ref { errors = 0; warnings = 0; infos = 0 } in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e ->
          check (Printf.sprintf "%s: JSONL line parses (%s)" tool e) false
      | Ok j ->
          let str k = Option.bind (Json.member k j) Json.to_str in
          let int k = Option.bind (Json.member k j) Json.to_int in
          check (tool ^ ": finding has rule/addr/message")
            (str "rule" <> None && int "addr" <> None && str "message" <> None);
          (match str "severity" with
          | Some "error" -> counts := { !counts with errors = !counts.errors + 1 }
          | Some "warning" ->
              counts := { !counts with warnings = !counts.warnings + 1 }
          | Some "info" -> counts := { !counts with infos = !counts.infos + 1 }
          | _ -> check (tool ^ ": finding has a valid severity") false))
    (lines text);
  !counts

(* ---- exit codes recomputed from the findings just printed ---- *)

let check_gate tool path (c : counts) =
  let code_err, _ = run (Printf.sprintf "%s %s --json" tool path) in
  check
    (Printf.sprintf "%s: default gate is --fail-on error (%d errors)" tool
       c.errors)
    (code_err = if c.errors > 0 then 1 else 0);
  let code_warn, _ =
    run (Printf.sprintf "%s %s --json --fail-on warning" tool path)
  in
  check
    (Printf.sprintf "%s: --fail-on warning (%d errors+warnings)" tool
       (c.errors + c.warnings))
    (code_warn = if c.errors + c.warnings > 0 then 1 else 0)

(* ---- adversarial scenario binaries through the same CLI surface ---- *)

let write_adversarial id =
  match Fetch_synth.Adversary.find id with
  | None ->
      check (Printf.sprintf "adversarial scenario %s exists" id) false;
      exit 1
  | Some sc -> save (Fetch_synth.Adversary.build sc ~seed:31)

let json_lines tool path =
  lines (snd (run (Printf.sprintf "%s %s --json --fail-on never" tool path)))

let rule_of line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> Option.bind (Json.member "rule" j) Json.to_str

(* Findings of one rule, straight from the JSONL stream. *)
let rule_findings tool path rule =
  List.filter (fun line -> rule_of line = Some rule) (json_lines tool path)

(* `rules` is a fixed selection of `lint`'s catalogue: its stream must be
   `lint`'s stream restricted to the shared rules, plus split-fn-fde
   (which `lint` does not run), both in the linter's one sort order. *)
let check_rules_is_lint_selection name path =
  let rules_out = json_lines "rules" path in
  let shared =
    List.filter
      (fun l ->
        match rule_of l with
        | Some ("jump-mid-insn" | "fde-unreached") -> true
        | _ -> false)
      (json_lines "lint" path)
  in
  check (name ^ ": rules == lint's shared rules + split-fn-fde")
    (List.filter (fun l -> rule_of l <> Some "split-fn-fde") rules_out = shared)

(* An Info fde-unreached finding claims a partially decoded range: its
   covered-byte count must be below the range size. *)
let full_coverage_claims path =
  List.filter
    (fun line ->
      match Json.parse line with
      | Error _ -> false
      | Ok j -> (
          match Option.bind (Json.member "message" j) Json.to_str with
          | None -> false
          | Some m -> (
              try
                Scanf.sscanf m "FDE covers [%_[^)]) but only %d of %d bytes"
                  (fun covered size -> covered = size)
              with Scanf.Scan_failure _ | End_of_file -> false)))
    (rule_findings "rules" path "fde-unreached")

let () =
  let clean =
    write_binary ~seed:11
      { Fetch_synth.Gen.default_spec with n_funcs = 25; n_asm_called = 1 }
  in
  let broken =
    write_binary ~seed:12
      { Fetch_synth.Gen.default_spec with n_funcs = 20; n_broken_fde = 2 }
  in
  let warn = write_warning_binary ~seed:12 in
  let adv_cfi = write_adversarial "cfi-broken" in
  let adv_junk = write_adversarial "padding-junk" in
  List.iter
    (fun tool ->
      List.iter
        (fun path ->
          let c = check_jsonl tool path in
          check_gate tool path c)
        [ clean; broken; warn; adv_cfi; adv_junk ])
    [ "lint"; "rules" ];

  (* the cfi-broken corpus is Fig. 6b at scale: its ten hand-broken FDEs
     must surface through the lint surface, not just the eval harness —
     as split-fn-fde fragments from the rules engine, and as unreached
     FDE ranges (the rejected lying starts) from the structural linter *)
  check "rules: cfi-broken binary trips split-fn-fde"
    (rule_findings "rules" adv_cfi "split-fn-fde" <> []);
  check "lint: cfi-broken binary reports its ten lying FDEs as unreached"
    (List.length (rule_findings "lint" adv_cfi "fde-unreached") >= 10);
  (* junk pools are data, never reached: the mid-instruction-jump rule
     must stay quiet — forged prologues alone must not create findings *)
  List.iter
    (fun tool ->
      check
        (tool ^ ": padding-junk binary stays clean of jump-mid-insn")
        (rule_findings tool adv_junk "jump-mid-insn" = []))
    [ "lint"; "rules" ];

  (* the orphan-FDE binary must actually trip the warning gate, or the
     --fail-on warning checks above only ever saw exit 0 *)
  let c_rules = check_jsonl "rules" warn in
  check "rules: orphan FDE yields a warning" (c_rules.warnings > 0);
  let c_lint = check_jsonl "lint" warn in
  check "lint: orphan FDE yields a warning" (c_lint.warnings > 0);

  (* the rules stream on cfi-broken is pinned line for line *)
  check "rules: cfi-broken output matches the pinned stream"
    (json_lines "rules" adv_cfi = lines (read_file rules_cfi_broken_pinned));

  (* fde-overlap duplicates FDEs (same start, different ends): no range
     may be reported as partially decoded with every byte decoded, and
     `rules` must stay a selection of `lint` *)
  let adv_overlap = write_adversarial "fde-overlap" in
  check "rules: fde-overlap has no 'N of N bytes' findings"
    (full_coverage_claims adv_overlap = []);
  List.iter
    (fun (name, path) -> check_rules_is_lint_selection name path)
    [ ("clean", clean); ("broken", broken); ("cfi-broken", adv_cfi);
      ("fde-overlap", adv_overlap) ];
  Sys.remove adv_overlap;

  (* --stats: the report lands on stdout and carries the split-fn-fde
     meter, which only the rules selection runs *)
  let code, text = run (Printf.sprintf "rules %s --stats --fail-on never" clean) in
  check "rules: --stats exits 0" (code = 0);
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  check "rules: --stats shows the split-fn-fde counter"
    (contains "lint.findings.split-fn-fde");
  check "rules: --stats shows the lint.split-fn-fde span"
    (contains "lint.split-fn-fde");

  (* ---- explain: a garbage address must exit 2 with usage, not crash ---- *)
  List.iter
    (fun addr ->
      let code, _ = run (Printf.sprintf "explain %s %s" clean addr) in
      check (Printf.sprintf "explain rejects %s with exit 2" addr) (code = 2))
    [ "zzz"; "0xgg"; "''" ];
  let code_ok, _ = run (Printf.sprintf "explain %s 0x401000" clean) in
  check "explain accepts a hex address" (code_ok = 0);

  (* ---- serve: one stdin session through the real executable ---- *)
  let reqs = Filename.temp_file "fetch_cli" ".jsonl" in
  let oc = open_out_bin reqs in
  Printf.fprintf oc
    {|{"id":1,"path":%s}
{"id":2,"path":%s,"want":["starts"]}
not even json
{"id":4,"path":"/nonexistent/fetch-cli-serve"}
{"op":"stats","id":5}
|}
    (Fetch_util.Json.escape clean)
    (Fetch_util.Json.escape clean);
  close_out oc;
  let stats_out = Filename.temp_file "fetch_cli" ".stats" in
  let code, serve_text =
    run
      (Printf.sprintf "serve --domains 2 --stats-json %s < %s"
         (Filename.quote stats_out) (Filename.quote reqs))
  in
  check "serve session exits 0" (code = 0);
  let responses = lines serve_text in
  check "serve answers every line" (List.length responses = 5);
  let field line k =
    match Json.parse line with
    | Ok j -> Json.member k j
    | Error _ -> None
  in
  let statuses =
    List.map (fun l -> Option.bind (field l "status") Json.to_str) responses
  in
  check "serve statuses in request order"
    (statuses
    = [ Some "ok"; Some "ok"; Some "error"; Some "error"; Some "ok" ]);
  let ids = List.map (fun l -> Option.bind (field l "id") Json.to_int) responses in
  check "serve echoes ids in order"
    (ids = [ Some 1; Some 2; None; Some 4; Some 5 ]);
  (match responses with
  | _ :: narrow :: bad :: missing :: stats :: _ ->
      check "serve want=starts drops findings" (field narrow "findings" = None);
      check "serve malformed line is bad_request"
        (Option.bind (field bad "code") Json.to_str = Some "bad_request");
      check "serve unreadable path is analysis_failed"
        (Option.bind (field missing "code") Json.to_str = Some "analysis_failed");
      check "serve in-band stats counts requests"
        (match
           Option.bind (field stats "stats") (Json.member "requests")
           |> Fun.flip Option.bind Json.to_int
         with
        | Some n -> n >= 4
        | None -> false)
  | _ -> check "serve responses have the expected shape" false);
  let stats_text = read_file stats_out in
  check "serve --stats-json writes a parseable snapshot on exit"
    (match Json.parse (String.trim stats_text) with
    | Ok j -> Json.member "cache" j <> None
    | Error _ -> false);
  (* an over-bound request line is answered, not fatal: the line is
     discarded to its newline and the stream resumes *)
  let oc = open_out_bin reqs in
  Printf.fprintf oc "{\"id\":1,\"bytes_b64\":\"%s\"}\n{\"op\":\"stats\"}\n"
    (String.make 4096 'A');
  close_out oc;
  let code, serve_text =
    run (Printf.sprintf "serve --max-line-kb 1 < %s" (Filename.quote reqs))
  in
  check "serve survives an over-bound line" (code = 0);
  (match lines serve_text with
  | [ oversized; stats ] ->
      check "over-bound line answered with bad_request"
        (Option.bind (field oversized "code") Json.to_str = Some "bad_request");
      check "stream resumes after the over-bound line"
        (Option.bind (field stats "status") Json.to_str = Some "ok")
  | rs -> check (Printf.sprintf "expected 2 responses, got %d" (List.length rs)) false);
  Sys.remove reqs;
  Sys.remove stats_out;

  Sys.remove clean;
  Sys.remove broken;
  Sys.remove warn;
  Sys.remove adv_cfi;
  Sys.remove adv_junk;
  if !failures > 0 then begin
    Printf.printf "%d CLI check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all CLI checks passed"
