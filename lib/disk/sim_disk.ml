module Simclock = S4_util.Simclock
module Histogram = S4_util.Histogram
module Trace = S4_obs.Trace

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable sectors_read : int;
  mutable sectors_written : int;
  mutable seeks : int;
  mutable sequential : int;
  mutable busy_ns : int64;
  read_latency : Histogram.t;
  write_latency : Histogram.t;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    sectors_read = 0;
    sectors_written = 0;
    seeks = 0;
    sequential = 0;
    busy_ns = 0L;
    read_latency = Histogram.create ();
    write_latency = Histogram.create ();
  }

(* The in-memory backing keeps sector contents in 4 KB pages: one
   table entry and one copy per page, however many sectors a request
   spans. [present] has bit [i] set when sector [i] of the page holds
   stored contents; absent sectors are zero bytes, and a page leaves
   the table when its last sector is erased. Torn prefixes, erases and
   [peek] of any range therefore read exactly what a per-sector table
   would.

   A write of exactly one whole page keeps the caller's buffer as the
   page's [data] instead of copying it ([kept]). The store never
   writes into a kept buffer: a later whole-page write replaces it,
   and a partial write, torn write or erase copies it first. *)
type page = { mutable data : Bytes.t; mutable present : int; mutable kept : bool }

module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (i : int) = i land max_int
end)

type mem = { pages : page Pages.t; page_sectors : int }

(* Where sector contents live: the sparse in-memory page table
   (simulation) or a real host file (durability). Timing, stats, fault
   injection and the whole stack above are identical over both. *)
type backing = Mem of mem | File of File_disk.t

let page_bytes = 4096

type t = {
  geometry : Geometry.t;
  clock : Simclock.t;
  backing : backing;
  mutable head : int;  (* lba just past the last request *)
  mutable stats : stats;
  mutable phantom : bool;
  mutable phantom_ns : int64;
  mutable fault : Fault.t option;
  mutable head_provider : (unit -> S4_integrity.Chain.head option) option;
      (* the drive above registers this; barriers snapshot its result *)
  mutable saved_head : S4_integrity.Chain.head option;
      (* device-held anchor as of the last barrier (or image load) *)
}

let create ?(geometry = Geometry.cheetah_9gb) clock =
  {
    geometry;
    clock;
    backing =
      Mem
        {
          pages = Pages.create 1024;
          page_sectors = max 1 (min 32 (page_bytes / geometry.Geometry.sector_size));
        };
    head = 0;
    stats = fresh_stats ();
    phantom = false;
    phantom_ns = 0L;
    fault = None;
    head_provider = None;
    saved_head = None;
  }

let of_file file =
  let clock = Simclock.create () in
  Simclock.set clock (File_disk.clock_ns file);
  {
    geometry = File_disk.geometry file;
    clock;
    backing = File file;
    head = 0;
    stats = fresh_stats ();
    phantom = false;
    phantom_ns = 0L;
    fault = None;
    head_provider = None;
    saved_head = File_disk.head file;
  }

let file_backing t = match t.backing with File f -> Some f | Mem _ -> None

let set_head_provider t f = t.head_provider <- Some f
let current_head t = match t.head_provider with Some f -> f () | None -> t.saved_head
let saved_head t = t.saved_head
let set_saved_head t h = t.saved_head <- h

let barrier t =
  t.saved_head <- current_head t;
  match t.backing with
  | Mem _ -> ()
  | File f ->
    File_disk.set_head f t.saved_head;
    File_disk.sync f ~clock_ns:(Simclock.now t.clock)

let close t = match t.backing with Mem _ -> () | File f -> File_disk.close f

let set_fault t policy = t.fault <- policy
let fault t = t.fault

let geometry t = t.geometry
let clock t = t.clock
let capacity_sectors t = t.geometry.Geometry.sectors
let capacity_bytes t = Geometry.capacity_bytes t.geometry
let stats t = t.stats
let reset_stats t = t.stats <- fresh_stats ()
let busy_seconds t = Int64.to_float t.stats.busy_ns /. 1e9

let check_range t ~lba ~sectors =
  if lba < 0 || sectors <= 0 || lba + sectors > capacity_sectors t then
    invalid_arg
      (Printf.sprintf "Sim_disk: range [%d, %d) outside [0, %d)" lba (lba + sectors)
         (capacity_sectors t))

(* Service time in ms for a request at [lba] of [sectors], given the
   current head position. Sequential continuation pays transfer only;
   everything else pays seek (distance-dependent) plus average
   rotational latency (half a revolution) plus transfer. *)
let service_ms t ~tcq ~lba ~sectors =
  let g = t.geometry in
  let bytes = sectors * g.Geometry.sector_size in
  let transfer = Geometry.transfer_ms g ~bytes in
  if lba = t.head then (transfer, true)
  else begin
    let distance = abs (lba - t.head) in
    let seek = Geometry.seek_ms g ~distance_sectors:distance in
    let rotation = Geometry.rotation_ms g /. 2.0 in
    let rotation = if tcq then rotation /. 2.0 else rotation in
    (seek +. rotation +. transfer, false)
  end

let account t ?(tcq = false) ~lba ~sectors ~is_read () =
  let ms, sequential = service_ms t ~tcq ~lba ~sectors in
  let ns = Simclock.of_ms ms in
  let t0 = if Trace.on () then Simclock.now t.clock else 0L in
  (if t.phantom then begin
     t.phantom_ns <- Int64.add t.phantom_ns ns;
     t.head <- lba + sectors
   end
   else begin
     Simclock.advance t.clock ns;
     let s = t.stats in
     s.busy_ns <- Int64.add s.busy_ns ns;
     if sequential then s.sequential <- s.sequential + 1 else s.seeks <- s.seeks + 1;
     if is_read then begin
       s.reads <- s.reads + 1;
       s.sectors_read <- s.sectors_read + sectors;
       Histogram.add s.read_latency ms
     end
     else begin
       s.writes <- s.writes + 1;
       s.sectors_written <- s.sectors_written + sectors;
       Histogram.add s.write_latency ms
     end;
     t.head <- lba + sectors
   end);
  if Trace.on () then
    (* Phantom-mode transfers leave the shared clock alone, so the
       span is instantaneous; the service time rides in [disk_ns]. *)
    Trace.emit Trace.Disk
      ~kind:(if is_read then "read" else "write")
      ~start_ns:t0 ~stop_ns:(Simclock.now t.clock)
      ~bytes:(sectors * t.geometry.Geometry.sector_size)
      ~disk_ns:ns ()

let read t ~lba ~sectors =
  check_range t ~lba ~sectors;
  (match t.fault with
   | None -> ()
   | Some f ->
     (match Fault.on_read f ~sectors with
      | Fault.R_ok -> ()
      | Fault.R_fail transient ->
        (* The failed attempt still spent positioning time. *)
        account t ~lba ~sectors ~is_read:true ();
        raise (Fault.Read_fault { lba; transient })));
  account t ~lba ~sectors ~is_read:true ()

(* A page about to be written in place: copy a kept buffer first. *)
let own pg =
  if pg.kept then begin
    pg.data <- Bytes.copy pg.data;
    pg.kept <- false
  end

(* Store [sectors] sectors at [lba] from [src] starting at byte [off]
   ([None]: erase them). *)
let store_mem t m ~lba ~sectors src off =
  let ss = t.geometry.Geometry.sector_size and ps = m.page_sectors in
  let i = ref 0 in
  while !i < sectors do
    let l = lba + !i in
    let p = l / ps and o = l mod ps in
    let n = min (ps - o) (sectors - !i) in
    let bits = ((1 lsl n) - 1) lsl o in
    (match (src, Pages.find_opt m.pages p) with
     | Some b, pg when n = ps && Bytes.length b = ps * ss -> (
       (* One write of exactly this page: keep its buffer. *)
       match pg with
       | Some pg ->
         pg.data <- b;
         pg.present <- bits;
         pg.kept <- true
       | None -> Pages.add m.pages p { data = b; present = bits; kept = true })
     | Some b, Some pg ->
       own pg;
       Bytes.blit b (off + (!i * ss)) pg.data (o * ss) (n * ss);
       pg.present <- pg.present lor bits
     | Some b, None ->
       let data =
         if n = ps then Bytes.sub b (off + (!i * ss)) (ps * ss)
         else begin
           let d = Bytes.make (ps * ss) '\000' in
           Bytes.blit b (off + (!i * ss)) d (o * ss) (n * ss);
           d
         end
       in
       Pages.add m.pages p { data; present = bits; kept = false }
     | None, Some pg ->
       let left = pg.present land lnot bits in
       if left = 0 then Pages.remove m.pages p
       else begin
         own pg;
         Bytes.fill pg.data (o * ss) (n * ss) '\000';
         pg.present <- left
       end
     | None, None -> ());
    i := !i + n
  done

(* Persist the first [sectors] sectors of a request's payload. *)
let store_data t ~lba ~sectors data =
  match t.backing with
  | Mem m -> store_mem t m ~lba ~sectors data 0
  | File f ->
    (match data with
     | None -> File_disk.erase f ~lba ~sectors
     | Some b ->
       let n = sectors * t.geometry.Geometry.sector_size in
       File_disk.write f ~lba (if n = Bytes.length b then b else Bytes.sub b 0 n))

let check_data t ~sectors data =
  match data with
  | Some b when Bytes.length b <> sectors * t.geometry.Geometry.sector_size ->
    invalid_arg "Sim_disk.write: data length mismatch"
  | _ -> ()

(* Persist only the first [k] sectors of the request, leaving the tail
   untouched on the platter (torn write / crash mid-transfer). *)
let store_prefix t ~lba ~k data = if k > 0 then store_data t ~lba ~sectors:k data

let write t ?tcq ?data ~lba ~sectors () =
  check_range t ~lba ~sectors;
  check_data t ~sectors data;
  (match t.fault with
   | None -> store_data t ~lba ~sectors data
   | Some f ->
     (match Fault.on_write f ~sectors with
      | Fault.W_ok -> store_data t ~lba ~sectors data
      | Fault.W_torn k -> store_prefix t ~lba ~k data
      | Fault.W_corrupt ->
        (* Flip one bit of the payload before it reaches the platter;
           nothing above the disk notices until a CRC check does. *)
        let data =
          Option.map
            (fun b ->
              let b = Bytes.copy b in
              Fault.corrupt_bit f b;
              b)
            data
        in
        store_data t ~lba ~sectors data
      | Fault.W_fail transient ->
        account t ?tcq ~lba ~sectors ~is_read:false ();
        raise (Fault.Write_fault { lba; transient })
      | Fault.W_crash k ->
        store_prefix t ~lba ~k data;
        raise Fault.Crashed));
  account t ?tcq ~lba ~sectors ~is_read:false ()

let peek t ~lba ~sectors =
  check_range t ~lba ~sectors;
  match t.backing with
  | Mem m ->
    let ss = t.geometry.Geometry.sector_size and ps = m.page_sectors in
    let out = Bytes.make (sectors * ss) '\000' in
    let i = ref 0 in
    while !i < sectors do
      let l = lba + !i in
      let o = l mod ps in
      let n = min (ps - o) (sectors - !i) in
      (match Pages.find_opt m.pages (l / ps) with
       | Some pg -> Bytes.blit pg.data (o * ss) out (!i * ss) (n * ss)
       | None -> ());
      i := !i + n
    done;
    out
  | File f -> File_disk.read f ~lba ~sectors

let poke t ~lba ~data =
  let ss = t.geometry.Geometry.sector_size in
  if Bytes.length data mod ss <> 0 then invalid_arg "Sim_disk.poke: not sector aligned";
  let sectors = Bytes.length data / ss in
  check_range t ~lba ~sectors;
  store_data t ~lba ~sectors (Some data)

let read_bytes t ~lba ~sectors =
  read t ~lba ~sectors;
  peek t ~lba ~sectors

let set_phantom t v = t.phantom <- v
let phantom_ns t = t.phantom_ns
let reset_phantom t = t.phantom_ns <- 0L

let pp_stats ppf t =
  let s = t.stats in
  Format.fprintf ppf
    "disk: %d reads (%d sect), %d writes (%d sect), %d seeks, %d seq, busy %.3f s"
    s.reads s.sectors_read s.writes s.sectors_written s.seeks s.sequential
    (busy_seconds t)
