(** Cross-layer consistency linter.

    The pipeline's layers — the [.eh_frame] CFA tables, the recursive
    disassembly, the §IV-E checks, Algorithm 1 — each make claims about
    the same bytes.  The linter cross-examines those claims after a run
    and emits a {!Finding.t} per disagreement.  Rule catalogue:

    - [func-overlap] — two detected functions decode the same bytes with
      disagreeing instruction boundaries ([Error]); agreeing boundaries
      (shared code) are reported as [Info].
    - [jump-mid-insn] — a direct/conditional jump lands strictly inside a
      committed instruction ([Error]).
    - [jump-mid-func] — a jump from one function lands inside another
      detected function's body at an address that function never treats
      as a block start ([Warning]; the paper's error class iii).
    - [fde-unreached] — an FDE-covered byte range the recursive
      disassembly never decoded at all ([Warning]); partially decoded
      ranges (e.g. landing pads outside the CFG) are [Info].
    - [start-callconv] — a kept function start that fails the §IV-E
      register-initialization lattice ([Warning]).
    - [height-mismatch] — a sound join-based stack-height dataflow (run on
      {!Dataflow.Join_fixpoint}) disagrees with the CFI height oracle
      inside rsp-complete CFI coverage ([Warning]).
    - [split-fn-fde] — an FDE that describes a split-off fragment of a
      detected function, not a function (Fig. 6b): the target of an
      out-jump carries its own FDE, is referenced by nothing but jumps of
      the function it leaves, and its FDE's entry CFI height is nonzero
      and equals the height at the jump site ([Warning]).  Outside the
      default selection of {!run}: only [fetch rules] runs it.

    The linter consumes a {!view} — plain data plus closures — so it
    depends on no particular pipeline; [Fetch_core.Lint] adapts a
    finished pipeline result into one. *)

open Fetch_x86

(** One detected (final) function. *)
type func = {
  entry : int;
  blocks : (int * int) list;  (** decoded [lo, hi) ranges *)
  jumps : (int * int) list;  (** direct/conditional jump site, target *)
}

type view = {
  insn_at : int -> (Insn.t * int) option;
  in_text : int -> bool;
  funcs : func list;  (** final detected functions *)
  insn_spans : unit Fetch_util.Interval_map.t;
      (** committed instruction extents of the whole run *)
  fdes : (int * int) list;  (** every FDE's [pc_begin, pc_begin+range) *)
  complete_cfi : (int * int) list;
      (** ranges whose CFI passes the §V-B rsp-completeness test *)
  oracle_height : int -> int option;  (** CFI stack height, complete only *)
  callconv_ok : int -> bool;  (** §IV-E verdict for a candidate start *)
  call_returns : site:int -> target:int option -> bool;
      (** does execution continue after this call site? *)
  resolve_indirect :
    site:int ->
    window:(int * int * Insn.t) list ->
    Insn.operand ->
    int list option;
      (** jump-table resolution for the height dataflow *)
  fde_entry_height : int -> int option;
      (** raw CFI height at the start of the FDE beginning exactly here
          ([None] when no FDE starts here) — unchecked, since a split-off
          fragment's FDE starts mid-frame and never passes §V-B *)
  referenced_outside_jumps : entry:int -> int -> bool;
      (** is the address referenced by anything other than jumps of
          [entry]?  (Criterion 3 of Algorithm 1.) *)
}

(** Run the [rules] selection (default: every rule but [split-fn-fde]);
    findings come back sorted (most severe first, then by address).
    Instrumented runs get per-rule counters ([lint.findings.<rule>]) for
    the whole catalogue.  Raises [Invalid_argument] on a name outside
    the catalogue. *)
val run : ?rules:string list -> view -> Finding.t list
