(* Tests for fetch.check: the shared worklist dataflow engine (merge
   disciplines, fuel, fatal verdicts, edge hooks) and the cross-layer
   consistency linter (each rule against a fabricated inconsistency). *)

open Fetch_x86
open Fetch_analysis
module I = Insn
module Dataflow = Fetch_check.Dataflow
module Lint = Fetch_check.Lint
module Finding = Fetch_check.Finding

let check = Alcotest.check

(* Hand-assemble a tiny image: text at 0x1000 (same shape as the
   analysis tests). *)
let image_of items =
  let asm = Asm.assemble ~base:0x1000 items in
  let open Fetch_elf.Image in
  let sections =
    [
      {
        sec_name = ".text";
        kind = Progbits;
        flags = shf_alloc lor shf_execinstr;
        addr = 0x1000;
        data = asm.code;
        addralign = 16;
        entsize = 0;
      };
    ]
  in
  ({ entry = 0x1000; sections; symbols = [] }, asm)

let label asm l = Asm.label_addr asm l

let loaded_of items =
  let img, asm = image_of items in
  (Loaded.load img, asm)

(* --- the engine, on a path-counting lattice ---

   State counts NOPs along the path; join takes the minimum, so the two
   merge disciplines give observably different answers at a merge point:
   First_write_wins keeps whichever path arrived first, Join_fixpoint
   settles on the minimum over all paths. *)
module Count = struct
  type state = int
  type fatal = int  (** address the analysis aborted at *)

  let equal = Int.equal
  let join = min
  let widen ~old:_ _ = -1

  let transfer ~addr ~len:_ insn st =
    match insn with
    | I.Nop _ -> Dataflow.Step (st + 1)
    | I.Ud2 -> Dataflow.Fatal addr
    | _ -> Dataflow.Step st
end

module CS = Dataflow.Make (Count)

let prog_of loaded =
  { Dataflow.insn_at = Loaded.insn_at loaded; in_text = Loaded.in_text loaded }

(* Diamond: the left path counts two NOPs, the right path none; both end
   with an explicit jump to [merge]. *)
let diamond =
  [
    Asm.Label "f";
    Asm.I (I.Test (I.W64, Reg.Rdi, Reg.Rdi));
    Asm.I (I.Jcc (I.E, I.To_label "left"));
    Asm.I (I.Jmp (I.To_label "merge"));
    Asm.Label "left";
    Asm.I (I.Nop 1);
    Asm.I (I.Nop 1);
    Asm.I (I.Jmp (I.To_label "merge"));
    Asm.Label "merge";
    Asm.I I.Ret;
  ]

let test_engine_first_write_wins () =
  let loaded, asm = loaded_of diamond in
  let sol =
    CS.solve (prog_of loaded) CS.default_policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  (* breadth-first: the taken (left) edge is enqueued before the
     fallthrough, so the 2-NOP path reaches [merge] first and later
     arrivals are discarded *)
  check (Alcotest.option Alcotest.int) "first arrival kept" (Some 2)
    (Hashtbl.find_opt sol.CS.states (label asm "merge"));
  check Alcotest.int "four blocks walked" 4 sol.CS.blocks_walked;
  check Alcotest.bool "not exhausted" false sol.CS.exhausted;
  check (Alcotest.option Alcotest.int) "no fatal" None sol.CS.fatal

let test_engine_join_fixpoint () =
  let loaded, asm = loaded_of diamond in
  let sol =
    CS.solve (prog_of loaded) CS.default_policy ~merge:Dataflow.Join_fixpoint
      ~entry:(label asm "f") ~init:0 ()
  in
  (* the join (min) over both paths survives regardless of arrival order *)
  check (Alcotest.option Alcotest.int) "joined over both paths" (Some 0)
    (Hashtbl.find_opt sol.CS.states (label asm "merge"));
  check Alcotest.bool "at least one in-state update" true (sol.CS.joins >= 1)

let test_engine_fatal_stops () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Nop 1);
        Asm.Label "bad";
        Asm.I I.Ud2;
        Asm.I (I.Nop 1);
      ]
  in
  let sol =
    CS.solve (prog_of loaded) CS.default_policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  check (Alcotest.option Alcotest.int) "fatal at ud2" (Some (label asm "bad"))
    sol.CS.fatal

let test_engine_fuel_exhaustion () =
  let loaded, asm =
    loaded_of
      (Asm.Label "f"
      :: List.init 8 (fun _ -> Asm.I (I.Nop 1))
      @ [ Asm.I I.Ret ])
  in
  let sol =
    CS.solve ~max_block_insns:4 (prog_of loaded) CS.default_policy
      ~merge:Dataflow.First_write_wins ~entry:(label asm "f") ~init:0 ()
  in
  check Alcotest.bool "fuel exhaustion reported" true sol.CS.exhausted;
  check Alcotest.int "stopped at the budget" 4 sol.CS.steps

let test_engine_edge_state_resets () =
  let items =
    [
      Asm.Label "f";
      Asm.I (I.Nop 1);
      Asm.I (I.Nop 1);
      Asm.I (I.Jmp (I.To_label "b"));
      Asm.Label "b";
      Asm.I I.Ret;
    ]
  in
  let loaded, asm = loaded_of items in
  let solve policy =
    CS.solve (prog_of loaded) policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  let plain = solve CS.default_policy in
  check (Alcotest.option Alcotest.int) "state crosses the edge" (Some 2)
    (Hashtbl.find_opt plain.CS.states (label asm "b"));
  let reset =
    solve
      { CS.default_policy with edge_state = (fun ~src:_ ~dst:_ _ -> 0) }
  in
  check (Alcotest.option Alcotest.int) "edge hook reset the state" (Some 0)
    (Hashtbl.find_opt reset.CS.states (label asm "b"))

let test_engine_undecodable_policy () =
  let loaded, asm =
    loaded_of [ Asm.Label "f"; Asm.I (I.Nop 1); Asm.Raw "\xff\xff" ]
  in
  let policy =
    { CS.default_policy with undecodable = (fun addr -> Some addr) }
  in
  let sol =
    CS.solve (prog_of loaded) policy ~merge:Dataflow.First_write_wins
      ~entry:(label asm "f") ~init:0 ()
  in
  check (Alcotest.option Alcotest.int) "undecodable byte is fatal"
    (Some (label asm "f" + 1))
    sol.CS.fatal

(* --- §IV-E on the engine: caller-saved registers die at call sites --- *)

let validate_items items =
  let loaded, asm = loaded_of items in
  (Callconv.validate loaded (label asm "f"), asm)

let test_callconv_call_clobbers_caller_saved () =
  (* r10 is live and initialized before the call, but caller-saved:
     reading it after the call is a violation *)
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.R10, I.Imm 7));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rdx, I.Reg Reg.R10));
        Asm.I (I.Call (I.To_label "g"));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.R10));
        Asm.I I.Ret;
        Asm.Label "g";
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "stale r10 read rejected" true (v = Callconv.Invalid)

let test_callconv_callee_saved_survives_call () =
  let v, _ =
    validate_items
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rbx, I.Imm 7));
        Asm.I (I.Call (I.To_label "g"));
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Reg Reg.Rbx));
        Asm.I I.Ret;
        Asm.Label "g";
        Asm.I I.Ret;
      ]
  in
  check Alcotest.bool "rbx survives the call" true (v = Callconv.Valid)

(* --- the linter, rule by rule, against fabricated views --- *)

let lint_view ?(funcs = []) ?(fdes = []) ?(complete_cfi = [])
    ?(oracle_height = fun _ -> None) ?(callconv_ok = fun _ -> true) loaded
    (res : Recursive.result) =
  {
    Lint.insn_at = Loaded.insn_at loaded;
    in_text = Loaded.in_text loaded;
    funcs;
    insn_spans = res.Recursive.insn_spans;
    fdes;
    complete_cfi;
    oracle_height;
    callconv_ok;
    call_returns = (fun ~site:_ ~target:_ -> true);
    resolve_indirect = (fun ~site:_ ~window:_ _ -> None);
    fde_entry_height = (fun _ -> None);
    referenced_outside_jumps = (fun ~entry:_ _ -> false);
  }

let findings_of rule fs = List.filter (fun f -> f.Finding.rule = rule) fs

let blocks_of (res : Recursive.result) entry =
  (Hashtbl.find res.Recursive.funcs entry).Recursive.blocks

let test_lint_jump_mid_insn () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Mov (I.W64, I.Reg Reg.Rax, I.Imm 0x11223344));
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  (* fabricate a jump landing inside the 7-byte mov at [f] *)
  let funcs =
    [ { Lint.entry = fa; blocks = blocks_of res fa; jumps = [ (fa, fa + 3) ] } ]
  in
  match findings_of "jump-mid-insn" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "error severity" true (f.severity = Finding.Error);
      check Alcotest.int "at the landing address" (fa + 3) f.addr;
      check (Alcotest.option Alcotest.int) "site recorded" (Some fa) f.related
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_func_overlap_disagreeing () =
  (* [f] decodes a 10-byte movabs whose immediate bytes are themselves a
     valid instruction stream, claimed as a second function [g]: the
     overlap decodes with different boundaries *)
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.Raw "\x48\xb8";
        (* movabs rax, imm64; the 8 immediate bytes follow *)
        Asm.Label "g";
        Asm.I (I.Nop 4);
        Asm.I (I.Nop 3);
        Asm.I I.Ret;
        Asm.Label "fend";
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and ga = label asm "g" in
  let fend = label asm "fend" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let funcs =
    [
      { Lint.entry = fa; blocks = [ (fa, fend + 1) ]; jumps = [] };
      { Lint.entry = ga; blocks = [ (ga, ga + 8) ]; jumps = [] };
    ]
  in
  match findings_of "func-overlap" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "error severity" true (f.severity = Finding.Error);
      check Alcotest.int "at the overlap start" ga f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_func_overlap_agreeing () =
  (* two functions sharing an identical tail block: Info, not Error *)
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I I.Ret;
        Asm.Label "g";
        Asm.I I.Ret;
        Asm.Label "t";
        Asm.I (I.Nop 1);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and ga = label asm "g" and ta = label asm "t" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let funcs =
    [
      { Lint.entry = fa; blocks = [ (fa, fa + 1); (ta, ta + 2) ]; jumps = [] };
      { Lint.entry = ga; blocks = [ (ga, ga + 1); (ta, ta + 2) ]; jumps = [] };
    ]
  in
  match findings_of "func-overlap" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "info severity" true (f.severity = Finding.Info);
      check Alcotest.int "at the shared block" ta f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_jump_mid_func () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Jmp (I.To_label "gmid"));
        Asm.Label "g";
        Asm.I (I.Nop 1);
        Asm.Label "gmid";
        Asm.I (I.Nop 1);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and ga = label asm "g" in
  let gm = label asm "gmid" in
  let res = Recursive.run loaded ~seeds:[ fa; ga ] in
  let funcs =
    [
      { Lint.entry = fa; blocks = [ (fa, ga) ]; jumps = [ (fa, gm) ] };
      { Lint.entry = ga; blocks = [ (ga, gm + 2) ]; jumps = [] };
    ]
  in
  match findings_of "jump-mid-func" (Lint.run (lint_view ~funcs loaded res)) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the jump site" fa f.addr;
      check (Alcotest.option Alcotest.int) "target recorded" (Some gm) f.related
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_fde_unreached () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I I.Ret;
        Asm.Align 16;
        Asm.Label "ghost";
        Asm.Raw (String.make 16 '\xcc');
      ]
  in
  let fa = label asm "f" and gh = label asm "ghost" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  (* one FDE fully decoded, one covering bytes nobody ever decoded *)
  let fdes = [ (fa, fa + 1); (gh, gh + 16) ] in
  match findings_of "fde-unreached" (Lint.run (lint_view ~fdes loaded res)) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the FDE start" gh f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_fde_partially_reached () =
  (* decoded ret + 15 undecoded padding bytes under one FDE: partial
     coverage downgrades to Info (the landing-pad shape) *)
  let loaded, asm =
    loaded_of
      [ Asm.Label "f"; Asm.I I.Ret; Asm.Raw (String.make 15 '\xcc') ]
  in
  let fa = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let fdes = [ (fa, fa + 16) ] in
  match findings_of "fde-unreached" (Lint.run (lint_view ~fdes loaded res)) with
  | [ f ] -> check Alcotest.bool "info severity" true (f.severity = Finding.Info)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_start_callconv () =
  let loaded, asm = loaded_of [ Asm.Label "f"; Asm.I I.Ret ] in
  let fa = label asm "f" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let funcs = [ { Lint.entry = fa; blocks = blocks_of res fa; jumps = [] } ] in
  let view = lint_view ~funcs ~callconv_ok:(fun a -> a <> fa) loaded res in
  match findings_of "start-callconv" (Lint.run view) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the start" fa f.addr
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_height_mismatch () =
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Push Reg.Rbx);
        Asm.Label "body";
        Asm.I (I.Nop 1);
        Asm.I (I.Pop Reg.Rbx);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and body = label asm "body" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let hi = fa + 4 in
  let funcs = [ { Lint.entry = fa; blocks = [ (fa, hi) ]; jumps = [] } ] in
  (* a lying oracle: claims height 0 after the push (statically 8) *)
  let oracle a = if a = body then Some 0 else None in
  let view =
    lint_view ~funcs ~complete_cfi:[ (fa, hi) ] ~oracle_height:oracle loaded res
  in
  match findings_of "height-mismatch" (Lint.run view) with
  | [ f ] ->
      check Alcotest.bool "warning severity" true (f.severity = Finding.Warning);
      check Alcotest.int "at the disagreeing address" body f.addr;
      check (Alcotest.option Alcotest.int) "function recorded" (Some fa)
        f.related
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_truthful_oracle_quiet () =
  (* same code, an oracle that tells the truth: no finding *)
  let loaded, asm =
    loaded_of
      [
        Asm.Label "f";
        Asm.I (I.Push Reg.Rbx);
        Asm.Label "body";
        Asm.I (I.Nop 1);
        Asm.I (I.Pop Reg.Rbx);
        Asm.I I.Ret;
      ]
  in
  let fa = label asm "f" and body = label asm "body" in
  let res = Recursive.run loaded ~seeds:[ fa ] in
  let hi = fa + 4 in
  let funcs = [ { Lint.entry = fa; blocks = [ (fa, hi) ]; jumps = [] } ] in
  let oracle a = if a = body then Some 8 else None in
  let view =
    lint_view ~funcs ~complete_cfi:[ (fa, hi) ] ~oracle_height:oracle loaded res
  in
  check Alcotest.int "no findings" 0 (List.length (Lint.run view))

(* --- end to end: clean pipeline runs produce no Error findings --- *)

let test_lint_clean_corpora () =
  List.iter
    (fun (compiler, opt, seed) ->
      let profile = Fetch_synth.Profile.make compiler opt in
      let built =
        Fetch_synth.Link.build_random ~profile ~seed
          { Fetch_synth.Gen.default_spec with n_funcs = 40 }
      in
      let r = Fetch_core.Pipeline.run built.image in
      let findings = Fetch_core.Lint.run r in
      let errors = List.filter (fun f -> f.Finding.severity = Finding.Error) findings in
      List.iter (fun f -> Printf.eprintf "%s\n" (Finding.to_string f)) errors;
      check Alcotest.int
        (Printf.sprintf "no errors (seed %d)" seed)
        0 (List.length errors))
    [
      (Fetch_synth.Profile.Synthgcc, Fetch_synth.Profile.O2, 5);
      (Fetch_synth.Profile.Synthllvm, Fetch_synth.Profile.O3, 9);
    ]

(* --- split-fn-fde on a real cold-split binary ---

   Analyzed with the FDE-fix stage off, the cold parts survive as
   separate FDE-seeded functions: the rule must flag only true split
   parts, and only when selected. *)

let split_result =
  lazy
    (let profile =
       {
         (Fetch_synth.Profile.make Fetch_synth.Profile.Synthgcc
            Fetch_synth.Profile.O2)
         with
         Fetch_synth.Profile.p_cold_split = 1.0;
         p_rbp_frame = 0.0;
       }
     in
     let b =
       Fetch_synth.Link.build_random ~profile ~seed:77
         { Fetch_synth.Gen.default_spec with n_funcs = 12 }
     in
     let r =
       Fetch_core.Pipeline.run
         ~config:
           { Fetch_core.Pipeline.default_config with fix_fde_errors = false }
         b.image
     in
     (b, r))

let split_rule = [ "split-fn-fde" ]

let test_lint_split_fn_fde () =
  let b, r = Lazy.force split_result in
  let flagged = Fetch_core.Lint.run ~rules:split_rule r in
  check Alcotest.bool "fires on the split binary" true (flagged <> []);
  let parts = Fetch_synth.Truth.part_starts b.truth in
  List.iter
    (fun (f : Finding.t) ->
      if f.rule <> "split-fn-fde" || f.severity <> Finding.Warning then
        Alcotest.failf "unexpected finding %s" (Finding.to_string f);
      if not (List.mem f.addr parts) then
        Alcotest.failf "split-fn-fde flagged %#x: not a true part" f.addr)
    flagged;
  check Alcotest.int "outside the default selection" 0
    (List.length (findings_of "split-fn-fde" (Fetch_core.Lint.run r)))

(* Negative control: one outside reference to a flagged target
   suppresses exactly that target's findings. *)
let test_lint_split_fn_fde_negative_control () =
  let _b, r = Lazy.force split_result in
  let view = Fetch_core.Lint.view_of r in
  let before = Lint.run ~rules:split_rule view in
  let target =
    match before with
    | f :: _ -> f.Finding.addr
    | [] -> Alcotest.fail "no split finding to control"
  in
  let after =
    Lint.run ~rules:split_rule
      {
        view with
        referenced_outside_jumps =
          (fun ~entry a -> a = target || view.referenced_outside_jumps ~entry a);
      }
  in
  check Alcotest.(list string) "only the referenced target drops out"
    (List.map Finding.to_string
       (List.filter (fun f -> f.Finding.addr <> target) before))
    (List.map Finding.to_string after)

(* Reports must be byte-stable however the findings were produced:
   [compare] is a total order (antisymmetric down to the last field), so
   sorting any permutation yields the same list. *)
let test_finding_compare_total_order () =
  let f rule severity addr related message =
    { Finding.rule; severity; addr; related; message }
  in
  let findings =
    [
      f "b" Finding.Error 5 None "x";
      f "a" Finding.Error 5 None "x";
      f "a" Finding.Warning 3 None "x";
      f "a" Finding.Warning 3 None "w";
      f "a" Finding.Warning 3 (Some 1) "w";
      f "a" Finding.Info 9 None "x";
    ]
  in
  let sorted = List.sort Finding.compare findings in
  check Alcotest.bool "permutations sort identically" true
    (List.sort Finding.compare (List.rev findings) = sorted);
  (* pairwise antisymmetry: distinct findings never compare equal *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j && Finding.compare a b = 0 then
            Alcotest.failf "distinct findings compare equal (%d, %d)" i j)
        findings)
    findings;
  check Alcotest.bool "severity dominates" true
    ((List.hd sorted).Finding.severity = Finding.Error)

let suite =
  [
    Alcotest.test_case "finding compare is a total order" `Quick
      test_finding_compare_total_order;
    Alcotest.test_case "engine: first write wins" `Quick test_engine_first_write_wins;
    Alcotest.test_case "engine: join fixpoint" `Quick test_engine_join_fixpoint;
    Alcotest.test_case "engine: fatal verdict stops the solve" `Quick test_engine_fatal_stops;
    Alcotest.test_case "engine: fuel exhaustion reported" `Quick test_engine_fuel_exhaustion;
    Alcotest.test_case "engine: edge-state hook" `Quick test_engine_edge_state_resets;
    Alcotest.test_case "engine: undecodable policy" `Quick test_engine_undecodable_policy;
    Alcotest.test_case "callconv: call clobbers caller-saved" `Quick test_callconv_call_clobbers_caller_saved;
    Alcotest.test_case "callconv: callee-saved survives call" `Quick test_callconv_callee_saved_survives_call;
    Alcotest.test_case "lint: jump-mid-insn" `Quick test_lint_jump_mid_insn;
    Alcotest.test_case "lint: func-overlap (disagreeing)" `Quick test_lint_func_overlap_disagreeing;
    Alcotest.test_case "lint: func-overlap (agreeing)" `Quick test_lint_func_overlap_agreeing;
    Alcotest.test_case "lint: jump-mid-func" `Quick test_lint_jump_mid_func;
    Alcotest.test_case "lint: fde-unreached" `Quick test_lint_fde_unreached;
    Alcotest.test_case "lint: fde partially reached" `Quick test_lint_fde_partially_reached;
    Alcotest.test_case "lint: start-callconv" `Quick test_lint_start_callconv;
    Alcotest.test_case "lint: height-mismatch" `Quick test_lint_height_mismatch;
    Alcotest.test_case "lint: truthful oracle stays quiet" `Quick test_lint_truthful_oracle_quiet;
    Alcotest.test_case "lint: clean corpora, zero errors" `Quick test_lint_clean_corpora;
    Alcotest.test_case "lint: split-fn-fde on split parts" `Quick
      test_lint_split_fn_fde;
    Alcotest.test_case "lint: split-fn-fde negative control" `Quick
      test_lint_split_fn_fde_negative_control;
  ]
