(** Adapter from a finished pipeline run to {!Fetch_check.Lint} — see the
    interface. *)

open Fetch_analysis

let view_of (r : Pipeline.result) =
  let loaded = r.Pipeline.loaded in
  let res = r.Pipeline.rec_result in
  let noreturn t = Hashtbl.mem res.Recursive.noreturn t in
  let cond_noreturn t = Hashtbl.mem res.Recursive.cond_noreturn t in
  (* the linter looks only at the functions the pipeline kept *)
  let funcs =
    List.filter_map
      (fun entry ->
        match Hashtbl.find_opt res.Recursive.funcs entry with
        | None -> None
        | Some (f : Recursive.func) ->
            Some
              {
                Fetch_check.Lint.entry;
                blocks = f.blocks;
                jumps = List.map (fun (s, _, t) -> (s, t)) f.all_jump_sites;
              })
      r.Pipeline.starts
  in
  let oracle = loaded.Loaded.oracle in
  (* only split-fn-fde asks about references: the default rules never
     pay for the census *)
  let refs = lazy (Refs.collect loaded res) in
  let complete_cfi = ref [] in
  Fetch_dwarf.Height_oracle.iter_complete oracle
    (fun ~lo ~hi -> complete_cfi := (lo, hi) :: !complete_cfi);
  {
    Fetch_check.Lint.insn_at = Loaded.insn_at loaded;
    in_text = Loaded.in_text loaded;
    funcs;
    insn_spans = res.Recursive.insn_spans;
    fdes =
      List.map
        (fun (f : Fetch_dwarf.Eh_frame.fde) ->
          (f.pc_begin, f.pc_begin + f.pc_range))
        loaded.Loaded.fdes;
    complete_cfi = List.rev !complete_cfi;
    oracle_height = Fetch_dwarf.Height_oracle.height_at oracle;
    callconv_ok =
      (fun s ->
        Callconv.validate ~noreturn ~cond_noreturn loaded s
        <> Callconv.Invalid);
    call_returns =
      (fun ~site:_ ~target ->
        (* conditionally-noreturn callees may return: falling through is
           the sound assumption for the height comparison *)
        match target with Some t -> not (noreturn t) | None -> true);
    resolve_indirect =
      (fun ~site:_ ~window op ->
        match Jump_table.resolve loaded.Loaded.image ~prior:window op with
        | Some { Jump_table.targets; _ } -> Some targets
        | None -> None);
    fde_entry_height =
      (fun a ->
        if Loaded.fde_starting_at loaded a then
          Fetch_dwarf.Height_oracle.height_at_unchecked oracle a
        else None);
    referenced_outside_jumps =
      (fun ~entry a ->
        Refs.referenced_outside_jumps_of (Lazy.force refs) ~entry a);
  }

let run ?rules r =
  let findings = Fetch_check.Lint.run ?rules (view_of r) in
  let module Prov = Fetch_obs.Provenance in
  if Prov.enabled () then
    List.iter
      (fun (f : Fetch_check.Finding.t) ->
        Prov.emit ~ev:"lint.finding" ~addr:f.addr
          (("rule", Prov.S f.rule)
          :: ("severity", Prov.S (Fetch_check.Finding.severity_label f.severity))
          ::
          (match f.related with
          | Some r -> [ ("related", Prov.I r) ]
          | None -> [])))
      findings;
  findings
