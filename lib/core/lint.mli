(** Adapter from a finished pipeline run to the cross-layer consistency
    linter ({!Fetch_check.Lint}): packages the run's layers — detected
    functions, committed instruction spans, FDE table, CFI oracle, §IV-E
    verdicts, the reference census — into the linter's pipeline-agnostic
    view. *)

(** The linter view of a pipeline result.  The reference census behind
    [referenced_outside_jumps] is collected on first use only. *)
val view_of : Pipeline.result -> Fetch_check.Lint.view

(** Lint a finished run with the [rules] selection (default: as
    {!Fetch_check.Lint.run}): findings sorted most-severe-first. *)
val run : ?rules:string list -> Pipeline.result -> Fetch_check.Finding.t list
