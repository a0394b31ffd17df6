(** Per-layer accounting over recorded spans.

    A span's self time is its duration minus the durations of its direct
    child spans.  Layers group span names (the [recursive] stage and the
    [recursive.extend] runs inside xref rounds are one layer, the lint
    rules belong to [lint], …).  A layer's self time is the sum of its
    spans' self times; its inclusive time is the sum of the durations of
    its outermost spans (those whose parent is in another layer).  The
    self times of all layers therefore tile the recorded time exactly. *)

module Trace = Fetch_obs.Trace

let layer_of_span = function
  | "pipeline" -> "pipeline"
  | "seeds" -> "pipeline.seeds"
  | "recursive" | "recursive.extend" -> "pipeline.recursive"
  | "xref" | "xref.round" -> "pipeline.xref"
  | "fde_callconv_check" -> "pipeline.fde_callconv_check"
  | "tailcall" -> "pipeline.tailcall"
  | n when n = "lint" || String.starts_with ~prefix:"lint." n -> "lint"
  | n -> n

(** Every span layer the benchmark reports, in report order. *)
let reported =
  [
    "elf.decode";
    "eh_frame.decode";
    "height_oracle.build";
    "loaded.load";
    "pipeline";
    "pipeline.seeds";
    "pipeline.recursive";
    "pipeline.xref";
    "pipeline.fde_callconv_check";
    "pipeline.tailcall";
    "lint";
    "summary";
    "serve.parse";
    "serve.json_parse";
    "serve.b64";
    "serve.digest";
    "serve.cache_find";
    "serve.cache_add";
    "serve.render";
  ]

(** Layers timed by a separate replay of work their parent performs
    internally (the benchmark adds no spans inside the library): the
    parent's self time excludes them.  [Loaded.load] builds the height
    oracle; [Protocol.parse_request] parses JSON and decodes base64. *)
let replayed_children =
  [
    ("loaded.load", [ "height_oracle.build" ]);
    ("serve.parse", [ "serve.json_parse"; "serve.b64" ]);
  ]

type acc = { mutable incl_ns : int64; mutable self_ns : int64 }

type t = (string, acc) Hashtbl.t

let create () : t = Hashtbl.create 32

let get (t : t) name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None ->
      let a = { incl_ns = 0L; self_ns = 0L } in
      Hashtbl.replace t name a;
      a

(* Spans come in pre-order with depths, so a stack of open spans gives
   each span its parent. *)
let parents (spans : Trace.span list) =
  let arr = Array.of_list spans in
  let parent = Array.make (Array.length arr) (-1) in
  let stack = ref [] in
  Array.iteri
    (fun i (s : Trace.span) ->
      let rec pop () =
        match !stack with
        | j :: rest when arr.(j).Trace.depth >= s.depth ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with j :: _ -> parent.(i) <- j | [] -> ());
      stack := i :: !stack)
    arr;
  (arr, parent)

let replayed = List.concat_map snd replayed_children

(** Add one run's spans; returns the time they account for in ns: the
    sum of the layers' self times, with replayed layers counted once
    (inside their parent), so it is comparable to the run's wall clock. *)
let add (t : t) (r : Trace.report) =
  let arr, parent = parents r.spans in
  let child_ns = Array.make (Array.length arr) 0L in
  Array.iteri
    (fun i (s : Trace.span) ->
      let p = parent.(i) in
      if p >= 0 then child_ns.(p) <- Int64.add child_ns.(p) s.dur_ns)
    arr;
  let total = ref 0L in
  Array.iteri
    (fun i (s : Trace.span) ->
      let layer = layer_of_span s.name in
      let a = get t layer in
      let self = Int64.sub s.dur_ns child_ns.(i) in
      a.self_ns <- Int64.add a.self_ns self;
      if not (List.mem layer replayed) then total := Int64.add !total self;
      let p = parent.(i) in
      if p < 0 || layer_of_span arr.(p).Trace.name <> layer then
        a.incl_ns <- Int64.add a.incl_ns s.dur_ns)
    arr;
  !total

let self_ns t name =
  let own = match Hashtbl.find_opt t name with Some a -> a.self_ns | None -> 0L in
  match List.assoc_opt name replayed_children with
  | None -> own
  | Some kids ->
      List.fold_left
        (fun acc k ->
          match Hashtbl.find_opt t k with
          | Some a -> Int64.sub acc a.incl_ns
          | None -> acc)
        own kids

let incl_ns t name =
  match Hashtbl.find_opt t name with Some a -> a.incl_ns | None -> 0L

(** Every layer seen, with unreported ones included (for the table). *)
let names (t : t) =
  let seen = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in
  reported
  @ List.sort compare (List.filter (fun n -> not (List.mem n reported)) seen)

(** Rewrite a run's spans so each carries the operation id and its
    parent span's name — the shape the Chrome trace export keeps. *)
let annotate ~id (r : Trace.report) =
  let arr, parent = parents r.spans in
  let spans =
    Array.to_list
      (Array.mapi
         (fun i (s : Trace.span) ->
           let p =
             if parent.(i) < 0 then "" else arr.(parent.(i)).Trace.name
           in
           { s with args = ("id", id) :: ("parent", p) :: s.args })
         arr)
  in
  { r with spans }
