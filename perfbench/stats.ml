(** Order statistics over samples. *)

(** [percentile xs p] with [p] in [0, 100]: linear interpolation between
    the closest ranks of the sorted samples; 0 when there are none. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(** Peak resident set size in MiB (VmHWM) of process [pid], by default
    this one. *)
let peak_rss_mb ?pid () =
  let proc = match pid with Some p -> string_of_int p | None -> "self" in
  let kb =
    In_channel.with_open_text ("/proc/" ^ proc ^ "/status") (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" Fun.id
          | Some _ -> go ()
        in
        go ())
  in
  float_of_int kb /. 1024.0
