(* What the host can tell us about one process: monotonic time, CPU,
   allocation, peak memory, and the host-wide steal time that explains
   an outlier run. *)

external now_ns_raw : unit -> (int64[@unboxed]) = "s4perf_now_ns" "s4perf_now_ns_unboxed"
[@@noalloc]

let now_ns () = Int64.to_int (now_ns_raw ())

(* User + system CPU of the whole process (every thread), seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated on every domain of this process. [Gc.minor_words]
   counts only the calling domain; [quick_stat] sums the per-domain
   samples, which a minor collection refreshes. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let words l =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l)
  |> List.filter (fun s -> s <> "")

(* Peak resident set (VmHWM) of this process, MB. *)
let peak_rss_mb () =
  List.fold_left
    (fun acc l ->
      match words l with
      | "VmHWM:" :: kb :: _ -> float_of_string kb /. 1024.0
      | _ -> acc)
    0.0
    (read_lines "/proc/self/status")

(* Host-wide steal time, in USER_HZ ticks (10 ms each): the eighth
   number of the first line of /proc/stat. Allocates nothing, so
   sampling it during a run leaves the allocation counts alone. *)
let stat_buf = Bytes.create 256

let steal_ticks () =
  match Unix.openfile "/proc/stat" [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> 0
  | fd ->
    let n = try Unix.read fd stat_buf 0 (Bytes.length stat_buf) with Unix.Unix_error _ -> 0 in
    Unix.close fd;
    let field = ref 0 and value = ref 0 and pos = ref 0 and in_num = ref false in
    while !pos < n && Bytes.get stat_buf !pos <> '\n' && !field <= 8 do
      (match Bytes.get stat_buf !pos with
       | '0' .. '9' as c ->
         if not !in_num then begin
           in_num := true;
           incr field;
           value := 0
         end;
         value := (!value * 10) + (Char.code c - 48)
       | _ -> in_num := false);
      if !field = 8 && not !in_num then pos := n else incr pos
    done;
    if !field >= 8 then !value else 0

(* The CPUs this process may run on, as the kernel lists them. *)
let cpus_allowed () =
  List.fold_left
    (fun acc l ->
      match words l with "Cpus_allowed_list:" :: cpus :: _ -> cpus | _ -> acc)
    "?"
    (read_lines "/proc/self/status")

let nproc () =
  let n =
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (read_lines "/proc/cpuinfo"))
  in
  if n > 0 then n else Domain.recommended_domain_count ()

