(** Seeded workload inputs — contract in the mli. *)

open Fetch_synth
module Corpus = Fetch_eval.Corpus
module Prng = Fetch_util.Prng

type binary = { id : string; raw : string; truth : Truth.t }
type job = { job_id : string; build : unit -> binary }

let stripped id (built : Link.built) =
  {
    id;
    raw = Fetch_elf.Encode.encode (Fetch_elf.Image.strip built.image);
    truth = built.truth;
  }

(* ---- corpus: Corpus.jobs_selfbuilt with the master seed swapped ---- *)

(* The same derivation as Fetch_eval.Corpus (its helpers are private):
   one sub-seed per (project, program, compiler, opt), a spec drawn from
   the project's function-count range, and one hand-broken FDE in three
   projects' first gcc-O2 program. *)
let broken_fde_projects = [ "Glibc-2.27"; "Openssl-1.1.0l"; "Nginx-1.15.0" ]

let corpus_built ~seed (p : Corpus.project) ~prog compiler opt =
  let bseed =
    Hashtbl.hash
      (seed, p.pname, prog, Profile.compiler_name compiler, Profile.opt_name opt)
  in
  let rng = Prng.create bseed in
  let lo, hi = p.funcs in
  let spec =
    p.asm
      {
        Gen.default_spec with
        n_funcs = Prng.range rng lo hi;
        cxx =
          (match p.lang with
          | Corpus.Cxx -> true
          | Corpus.Mixed -> Prng.bool rng
          | Corpus.C -> false);
        strip = false;
      }
  in
  let spec =
    if
      List.mem p.pname broken_fde_projects
      && prog = 0 && compiler = Profile.Synthgcc && opt = Profile.O2
    then { spec with Gen.n_broken_fde = 1 }
    else spec
  in
  let profile = Profile.make compiler opt in
  Link.build ~profile ~rng (Gen.program rng profile spec)

let corpus_jobs ?(scale = 1.0) ~seed () =
  List.concat_map
    (fun (p : Corpus.project) ->
      let n_prog = max 1 (int_of_float (float_of_int p.n_programs *. scale)) in
      List.concat_map
        (fun prog ->
          List.concat_map
            (fun compiler ->
              List.map
                (fun opt ->
                  let job_id =
                    Printf.sprintf "%s/%d-%s" p.pname prog
                      (Profile.name (Profile.make compiler opt))
                  in
                  {
                    job_id;
                    build =
                      (fun () ->
                        stripped job_id
                          (corpus_built ~seed p ~prog compiler opt));
                  })
                Profile.all_opts)
            [ Profile.Synthgcc; Profile.Synthllvm ])
        (List.init n_prog Fun.id))
    Corpus.projects

(* ---- large and serve: fixed sizes, seeded programs ---- *)

let profiles =
  Array.of_list
    (List.concat_map
       (fun c -> List.map (Profile.make c) Profile.all_opts)
       [ Profile.Synthgcc; Profile.Synthllvm ])

(* Profile and language follow the job index, so a seed changes program
   content, never the mix. *)
let synth_job ~seed ~tag i n_funcs =
  let profile = profiles.(i mod Array.length profiles) in
  let job_id = Printf.sprintf "%s/%d-%dfn-%s" tag i n_funcs (Profile.name profile) in
  let build () =
    let bseed = Hashtbl.hash (seed, tag, i) in
    let rng = Prng.create bseed in
    let spec =
      {
        Gen.default_spec with
        n_funcs;
        cxx = (i + (i / Array.length profiles)) mod 2 = 1;
        strip = false;
        n_asm_called = 1;
        n_asm_tailonly = 1;
        n_asm_pointer = 2;
        n_asm_code_ptr = 1;
        n_asm_unreachable = 1;
      }
    in
    stripped job_id (Link.build ~profile ~rng (Gen.program rng profile spec))
  in
  { job_id; build }

(* Biggest first: the batch pool takes binaries in order, so the
   smaller ones fill in while the biggest runs. *)
let large_sizes = [ 4000; 3500; 3000; 2600; 2200; 1800; 1400; 1000 ]

let large_jobs ?(sizes = large_sizes) ~seed () =
  List.mapi (synth_job ~seed ~tag:"large") sizes

(* Base sizes: an even ladder over a corpus-like 25..120 functions, in a
   seeded order, so every seed asks for the same total work. *)
let serve_jobs ?(n_bases = 120) ~seed () =
  let sizes =
    Array.init n_bases (fun i -> 25 + (i * 95 / max 1 (n_bases - 1)))
  in
  Prng.shuffle (Prng.create (Hashtbl.hash (seed, "serve-order"))) sizes;
  List.mapi (synth_job ~seed ~tag:"serve") (Array.to_list sizes)

let relink b tag =
  match Fetch_elf.Decode.decode b.raw with
  | Error e -> failwith (Printf.sprintf "%s: cannot re-link: %s" b.id e)
  | Ok img ->
      let comment =
        {
          Fetch_elf.Image.sec_name = ".comment";
          kind = Fetch_elf.Image.Progbits;
          flags = 0;
          addr = 0;
          data = "perfbench re-link " ^ tag ^ "\000";
          addralign = 1;
          entsize = 0;
        }
      in
      {
        b with
        id = b.id ^ "+relink";
        raw =
          Fetch_elf.Encode.encode
            { img with sections = img.sections @ [ comment ] };
      }

type serve_seq = {
  distinct : binary array;
  b64 : string array;
  requests : int array;
}

(* Repeats draw from the [window] most recently introduced binaries. *)
let window = 8

let serve_seq ~seed bases =
  let rng = Prng.create (Hashtbl.hash (seed, "serve-mix")) in
  let distinct = ref [] and n_distinct = ref 0 in
  let requests = ref [] in
  let introduce b =
    distinct := b :: !distinct;
    requests := !n_distinct :: !requests;
    incr n_distinct
  in
  let repeats k =
    for _ = 1 to k do
      let w = min window !n_distinct in
      requests := (!n_distinct - 1 - Prng.int rng w) :: !requests
    done
  in
  List.iteri
    (fun i b ->
      introduce b;
      repeats 3;
      introduce (relink b (string_of_int (Hashtbl.hash (seed, i))));
      repeats 3)
    bases;
  let distinct = Array.of_list (List.rev !distinct) in
  {
    distinct;
    b64 = Array.map (fun b -> Fetch_util.B64.encode b.raw) distinct;
    requests = Array.of_list (List.rev !requests);
  }

let request_line id b64 =
  String.concat "" [ {|{"id":|}; string_of_int id; {|,"bytes_b64":"|}; b64; {|"}|} ]

let digest bins =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun b -> Digest.string b.raw) bins)))

let seq_digest s =
  Digest.to_hex
    (Digest.string
       (digest (Array.to_list s.distinct)
       ^ String.concat "," (Array.to_list (Array.map string_of_int s.requests))))
