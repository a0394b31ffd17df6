(** Seeded workload inputs.

    Every input is a function of the workload seed alone: the same seed
    rebuilds byte-identical binaries and request sequences, a different
    seed changes them.  The analyzer only ever sees the encoded (and
    stripped) ELF bytes; the ground truth stays on the benchmark side for
    scoring. *)

(** One input binary: an identifier, the stripped ELF bytes the program
    receives, and the synthetic compiler's ground truth. *)
type binary = { id : string; raw : string; truth : Fetch_synth.Truth.t }

(** A build job: [build] derives one binary from its own sub-seed, so
    jobs run in any order or on any domain. *)
type job = { job_id : string; build : unit -> binary }

(** The self-built corpus of Table II (22 projects, both synthetic
    compilers at O2/O3/Os/Ofast; 1,432 binaries at [scale = 1.0]), with
    [seed] in place of {!Fetch_eval.Corpus.master_seed}.  With
    [~seed:Fetch_eval.Corpus.master_seed] it builds exactly the programs
    of {!Fetch_eval.Corpus.jobs_selfbuilt}. *)
val corpus_jobs : ?scale:float -> seed:int -> unit -> job list

(** The unstripped build of a corpus job — exposed so tests can compare
    {!corpus_jobs} with {!Fetch_eval.Corpus.jobs_selfbuilt}. *)
val corpus_built :
  seed:int -> Fetch_eval.Corpus.project -> prog:int ->
  Fetch_synth.Profile.compiler -> Fetch_synth.Profile.opt ->
  Fetch_synth.Link.built

(** The [large] workload: one job per function count in [sizes]
    (default a fixed ladder of 8 from 4,000 down to 1,000 functions, so
    the amount of work does not depend on the seed; the seed changes the
    programs). *)
val large_jobs : ?sizes:int list -> seed:int -> unit -> job list

(** The [serve] request mix over first-sight base binaries.  Per base:
    the base itself (a miss), three repeats, its re-link — the same image
    plus a [.comment] section, so the file digest changes while
    [.eh_frame] does not (a result miss that hits the [.eh_frame] level)
    — and three more repeats.  Repeats draw from the 8 most recently
    introduced binaries. *)
type serve_seq = {
  distinct : binary array;  (** bases and re-links, in first-sight order *)
  b64 : string array;  (** base64 of each distinct binary's bytes *)
  requests : int array;  (** index into [distinct], in send order *)
}

(** The [serve] base binaries: [n_bases] (default 120) corpus-sized
    programs, 25 to 120 functions in an even ladder, in a seeded order. *)
val serve_jobs : ?n_bases:int -> seed:int -> unit -> job list

(** Assemble the request sequence from the built bases (the output of
    {!serve_jobs}, in order). *)
val serve_seq : seed:int -> binary list -> serve_seq

(** One request line: [{"id":n,"bytes_b64":"…"}]. *)
val request_line : int -> string -> string

(** MD5 hex over the per-binary MD5s, in order — printed so two runs
    can show they analyzed byte-identical inputs. *)
val digest : binary list -> string

(** Digest of a request sequence: its distinct binaries and its order. *)
val seq_digest : serve_seq -> string
