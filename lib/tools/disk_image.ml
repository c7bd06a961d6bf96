(* Host-file persistence for simulated disks, so the CLI can operate on
   a drive across invocations. The image holds the geometry, the
   simulated clock, and the sparse sector contents.

   Images carry a trailing CRC-32 over everything between the magic
   and the checksum, and [save] is atomic: the new image is written to
   a temp file, fsynced, renamed over the old one, and the directory
   entry flushed — a crash mid-save leaves the previous image intact. *)

module Bcodec = S4_util.Bcodec
module Crc32 = S4_util.Crc32
module Simclock = S4_util.Simclock
module Geometry = S4_disk.Geometry
module Sim_disk = S4_disk.Sim_disk
module File_disk = S4_disk.File_disk
module Chain = S4_integrity.Chain

let magic = "S4IMG2\n"

let corrupt path fmt =
  Printf.ksprintf (fun s -> failwith (path ^ ": corrupt image (" ^ s ^ ")")) fmt

(* ------------------------------------------------------------------ *)
(* Save                                                                *)

let encode_body (clock : Simclock.t) (disk : Sim_disk.t) =
  let g = Sim_disk.geometry disk in
  let w = Bcodec.writer () in
  Geometry.encode w g;
  Bcodec.w_i64 w (Simclock.now clock);
  (* The sealed audit-chain head rides in the image header: a saved
     image is a device-level copy, anchor included. Absent entirely in
     pre-integrity images (header ends after the clock). *)
  (match Sim_disk.current_head disk with
   | None -> Bcodec.w_u8 w 0
   | Some h ->
     Bcodec.w_u8 w 1;
     Chain.write_head w h);
  let header = Bcodec.contents w in
  let body = Buffer.create (1 lsl 20) in
  Buffer.add_int32_be body (Int32.of_int (Bytes.length header));
  Buffer.add_bytes body header;
  (* Sparse sector dump: scan for sectors with content. *)
  let ss = g.Geometry.sector_size in
  let zero = Bytes.make ss '\000' in
  let count = ref 0 in
  let payload = Buffer.create (1 lsl 20) in
  for lba = 0 to g.Geometry.sectors - 1 do
    let b = Sim_disk.peek disk ~lba ~sectors:1 in
    if not (Bytes.equal b zero) then begin
      incr count;
      Buffer.add_int32_be payload (Int32.of_int lba);
      Buffer.add_bytes payload b
    end
  done;
  Buffer.add_int32_be body (Int32.of_int !count);
  Buffer.add_buffer body payload;
  Buffer.contents body

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let save path (clock : Simclock.t) (disk : Sim_disk.t) =
  let body = encode_body clock disk in
  let crc = Crc32.string body in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic;
     output_string oc body;
     let tail = Bytes.create 4 in
     Bytes.set_int32_be tail 0 (Int32.of_int crc);
     output_bytes oc tail;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  fsync_dir path

(* ------------------------------------------------------------------ *)
(* Load                                                                *)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A decoding cursor over the in-memory body with explicit bounds
   checks; nothing is trusted before it is range-checked. *)
type cursor = { buf : string; mutable pos : int; path : string }

let need c n what =
  if n < 0 || c.pos + n > String.length c.buf then
    corrupt c.path "truncated (%s at offset %d)" what c.pos

let r_u32 c what =
  need c 4 what;
  let v = Int32.to_int (String.get_int32_be c.buf c.pos) in
  c.pos <- c.pos + 4;
  v

let r_bytes c n what =
  need c n what;
  let b = Bytes.of_string (String.sub c.buf c.pos n) in
  c.pos <- c.pos + n;
  b

let remaining c = String.length c.buf - c.pos

let load_body path body =
  let c = { buf = body; pos = 0; path } in
  let hlen = r_u32 c "header length" in
  if hlen < 0 || hlen > remaining c then corrupt path "bad header length %d" hlen;
  let header = r_bytes c hlen "header" in
  let geometry, now, head =
    match
      let r = Bcodec.reader header in
      let g = Geometry.decode r in
      let now = Bcodec.r_i64 r in
      let head =
        if Bcodec.remaining r = 0 then None
        else if Bcodec.r_u8 r = 0 then None
        else Some (Chain.read_head r)
      in
      (g, now, head)
    with
    | g, now, head -> (g, now, head)
    | exception Bcodec.Decode_error m -> corrupt path "bad header: %s" m
  in
  if Int64.compare now 0L < 0 then corrupt path "negative clock";
  let ss = geometry.Geometry.sector_size in
  let count = r_u32 c "sector count" in
  if count < 0 then corrupt path "negative sector count %d" count;
  if count * (4 + ss) <> remaining c then
    corrupt path "sector payload size mismatch (%d sectors declared, %d bytes remain)"
      count (remaining c);
  let clock = Simclock.create () in
  Simclock.set clock now;
  let disk = Sim_disk.create ~geometry clock in
  Sim_disk.set_saved_head disk head;
  for _ = 1 to count do
    let lba = r_u32 c "sector lba" in
    if lba < 0 || lba >= geometry.Geometry.sectors then
      corrupt path "sector lba %d outside [0, %d)" lba geometry.Geometry.sectors;
    let data = r_bytes c ss "sector data" in
    Sim_disk.poke disk ~lba ~data
  done;
  (clock, disk)

let load path =
  let raw = read_whole_file path in
  let starts m = String.length raw >= String.length m && String.sub raw 0 (String.length m) = m in
  if not (starts magic) then failwith (path ^ ": not an S4 image");
  (* Trailing CRC-32 over everything between magic and checksum. *)
  let mlen = String.length magic in
  if String.length raw < mlen + 4 then corrupt path "truncated (no checksum)";
  let body = String.sub raw mlen (String.length raw - mlen - 4) in
  let stored = Int32.to_int (String.get_int32_be raw (String.length raw - 4)) land 0xFFFFFFFF in
  let crc = Crc32.string body in
  if stored <> crc then corrupt path "checksum mismatch (stored %08x, computed %08x)" stored crc;
  load_body path body

(* ------------------------------------------------------------------ *)
(* Format dispatch: serialized images vs. file-backed stores            *)

type kind = Image | File_store | Unknown

let kind path =
  match open_in_bin path with
  | exception Sys_error _ -> Unknown
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let n = min (in_channel_length ic) (String.length File_disk.magic) in
        let probe = really_input_string ic n in
        let starts m =
          String.length probe >= String.length m && String.sub probe 0 (String.length m) = m
        in
        if starts File_disk.magic then File_store
        else if starts magic then Image
        else Unknown)

let load_any ?(dsync = false) path =
  match kind path with
  | File_store ->
    let disk = Sim_disk.of_file (File_disk.open_file ~dsync path) in
    (Sim_disk.clock disk, disk)
  | Image -> load path
  | Unknown ->
    if Sys.file_exists path then failwith (path ^ ": not an S4 image or file-backed store")
    else raise (Sys_error (path ^ ": No such file or directory"))

let save_any path (clock : Simclock.t) (disk : Sim_disk.t) =
  match Sim_disk.file_backing disk with
  | Some f ->
    Sim_disk.set_saved_head disk (Sim_disk.current_head disk);
    File_disk.set_head f (Sim_disk.saved_head disk);
    File_disk.sync f ~clock_ns:(Simclock.now clock)
  | None -> save path clock disk
