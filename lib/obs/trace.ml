type layer = Nfs | Net | Router | Drive | Store | Seglog | Disk

let layer_name = function
  | Nfs -> "nfs"
  | Net -> "net"
  | Router -> "router"
  | Drive -> "drive"
  | Store -> "store"
  | Seglog -> "seglog"
  | Disk -> "disk"

type span = {
  id : int;
  parent : int;
  layer : layer;
  kind : string;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable oid : int64;
  mutable shard : int;
  mutable bytes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable faults : int;
  mutable retries : int;
  mutable at_ns : int64;
  mutable cutoff_ns : int64;
  mutable charged_ns : int64;
  mutable disk_ns : int64;
  mutable ok : bool;
  mutable err : string;
}

let unset = Int64.min_int
let null = -1

(* Growable span store; ids are array indices, so parent lookups are
   O(1) and a snapshot is a single Array.sub.

   Domain-safety: allocation (id assignment + push) and snapshot are
   serialized by one registry mutex; each domain keeps its own
   open-span stack in domain-local storage, so parenting follows the
   domain that actually executes the work (a span opened on a shard
   worker domain roots its own tree there). Field mutation needs no
   lock — a span is written only by the domain that opened it until it
   finishes, and snapshots are taken at quiescence. The enabled flag
   is atomic so [on] stays one plain load on the hot path. *)
let enabled = Atomic.make false
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let buf : span array ref = ref [||]
let len = ref 0

let stack_slot : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let my_stack () = Domain.DLS.get stack_slot

let on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

let clear () =
  locked (fun () ->
      buf := [||];
      len := 0);
  my_stack () := []

let count () = locked (fun () -> !len)
let spans () = locked (fun () -> Array.sub !buf 0 !len)

let grow () =
  let cap = Array.length !buf in
  if !len >= cap then begin
    let ncap = max 256 (2 * cap) in
    let nb =
      Array.make ncap
        {
          id = -1;
          parent = -1;
          layer = Disk;
          kind = "";
          start_ns = 0L;
          stop_ns = unset;
          oid = -1L;
          shard = -1;
          bytes = 0;
          cache_hits = 0;
          cache_misses = 0;
          faults = 0;
          retries = 0;
          at_ns = unset;
          cutoff_ns = unset;
          charged_ns = unset;
          disk_ns = unset;
          ok = true;
          err = "";
        }
    in
    Array.blit !buf 0 nb 0 cap;
    buf := nb
  end

let push s =
  grow ();
  !buf.(!len) <- s;
  incr len

let fresh ~parent layer ~kind ~start_ns =
  {
    id = !len;
    parent;
    layer;
    kind;
    start_ns;
    stop_ns = unset;
    oid = -1L;
    shard = -1;
    bytes = 0;
    cache_hits = 0;
    cache_misses = 0;
    faults = 0;
    retries = 0;
    at_ns = unset;
    cutoff_ns = unset;
    charged_ns = unset;
    disk_ns = unset;
    ok = true;
    err = "";
  }

let current_parent () = match !(my_stack ()) with [] -> -1 | p :: _ -> p

let enter layer ~kind ~now =
  if not (on ()) then null
  else begin
    let parent = current_parent () in
    let id =
      locked (fun () ->
          let s = fresh ~parent layer ~kind ~start_ns:now in
          push s;
          s.id)
    in
    let st = my_stack () in
    st := id :: !st;
    id
  end

(* The record itself is stable once pushed; only the backing array may
   be swapped by a concurrent [grow], hence the locked fetch. *)
let span_of tok = locked (fun () -> !buf.(tok))

let record_metrics s =
  let name = layer_name s.layer ^ "/" ^ s.kind in
  if Int64.compare s.stop_ns unset <> 0 then
    Metrics.observe name (Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e3);
  if s.bytes > 0 then Metrics.incr ~by:s.bytes (layer_name s.layer ^ ".bytes");
  if s.cache_hits > 0 then Metrics.incr ~by:s.cache_hits (layer_name s.layer ^ ".cache_hits");
  if s.cache_misses > 0 then
    Metrics.incr ~by:s.cache_misses (layer_name s.layer ^ ".cache_misses");
  if s.faults > 0 then Metrics.incr ~by:s.faults (layer_name s.layer ^ ".faults");
  if s.retries > 0 then Metrics.incr ~by:s.retries (layer_name s.layer ^ ".retries");
  if not s.ok then Metrics.incr (name ^ ".errors")

let close_one id ~now ~abandoned =
  let s = span_of id in
  if Int64.compare s.stop_ns unset = 0 then begin
    s.stop_ns <- now;
    if abandoned && s.err = "" then begin
      s.ok <- false;
      s.err <- "abandoned"
    end;
    record_metrics s
  end

(* Pop until [tok] is off the stack: children still open when their
   parent finishes were unwound by an exception through a frame with
   no instrumentation — close them at the same instant. *)
let rec unwind tok ~now =
  let stack = my_stack () in
  match !stack with
  | [] -> ()
  | top :: rest ->
    stack := rest;
    if top = tok then close_one top ~now ~abandoned:false
    else begin
      close_one top ~now ~abandoned:true;
      unwind tok ~now
    end

let finish tok ~now = if tok >= 0 then unwind tok ~now

let abort tok ~now =
  if tok >= 0 then begin
    let s = span_of tok in
    s.ok <- false;
    if s.err = "" then s.err <- "exception";
    unwind tok ~now
  end

let emit layer ~kind ~start_ns ~stop_ns ?(bytes = 0) ?(disk_ns = unset) () =
  if on () then begin
    let parent = current_parent () in
    let s =
      locked (fun () ->
          let s = fresh ~parent layer ~kind ~start_ns in
          s.stop_ns <- stop_ns;
          s.bytes <- bytes;
          s.disk_ns <- disk_ns;
          push s;
          s)
    in
    record_metrics s
  end

let set_oid tok oid = if tok >= 0 then (span_of tok).oid <- oid
let set_shard tok sh = if tok >= 0 then (span_of tok).shard <- sh
let set_bytes tok n = if tok >= 0 then (span_of tok).bytes <- n

let add_cache tok ~hits ~misses =
  if tok >= 0 then begin
    let s = span_of tok in
    s.cache_hits <- s.cache_hits + hits;
    s.cache_misses <- s.cache_misses + misses
  end

let add_faults tok n = if tok >= 0 then (span_of tok).faults <- (span_of tok).faults + n
let add_retries tok n = if tok >= 0 then (span_of tok).retries <- (span_of tok).retries + n
let set_at tok v = if tok >= 0 then (span_of tok).at_ns <- v
let set_cutoff tok v = if tok >= 0 then (span_of tok).cutoff_ns <- v

let add_charged tok v =
  if tok >= 0 then begin
    let s = span_of tok in
    s.charged_ns <- (if Int64.compare s.charged_ns unset = 0 then v else Int64.add s.charged_ns v)
  end

let set_disk_ns tok v = if tok >= 0 then (span_of tok).disk_ns <- v

let fail tok tag =
  if tok >= 0 then begin
    let s = span_of tok in
    s.ok <- false;
    s.err <- tag
  end

let pp_span ppf s =
  Format.fprintf ppf "#%d %s/%s" s.id (layer_name s.layer) s.kind;
  if Int64.compare s.oid (-1L) <> 0 then Format.fprintf ppf " oid=%Ld" s.oid;
  if s.shard >= 0 then Format.fprintf ppf " shard=%d" s.shard;
  Format.fprintf ppf " start=%Ldns" s.start_ns;
  if Int64.compare s.stop_ns unset <> 0 then
    Format.fprintf ppf " dur=%.1fus" (Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e3);
  if s.bytes > 0 then Format.fprintf ppf " bytes=%d" s.bytes;
  if s.cache_hits + s.cache_misses > 0 then
    Format.fprintf ppf " cache=%d/%d" s.cache_hits (s.cache_hits + s.cache_misses);
  if Int64.compare s.disk_ns unset <> 0 then
    Format.fprintf ppf " disk=%.1fus" (Int64.to_float s.disk_ns /. 1e3);
  if Int64.compare s.charged_ns unset <> 0 then
    Format.fprintf ppf " charged=%.1fus" (Int64.to_float s.charged_ns /. 1e3);
  if s.faults > 0 then Format.fprintf ppf " faults=%d" s.faults;
  if s.retries > 0 then Format.fprintf ppf " retries=%d" s.retries;
  if not s.ok then Format.fprintf ppf " FAILED(%s)" s.err

let pp_tree ppf sp =
  let depth = Array.make (Array.length sp) 0 in
  Array.iter
    (fun s -> if s.parent >= 0 && s.parent < Array.length sp then depth.(s.id) <- depth.(s.parent) + 1)
    sp;
  Array.iter
    (fun s -> Format.fprintf ppf "%s%a@." (String.make (2 * depth.(s.id)) ' ') pp_span s)
    sp

(* The one span skeleton: every layer's traced entry point is [f]
   wrapped here, with the layer's own fields supplied by [p]'s hooks.
   The untraced path is a plain call of [f]; [f] and the hooks are
   closed functions, so it allocates nothing. *)
type ('c, 'a, 'r, 'v, 's) probe = {
  clock : 'c -> S4_util.Simclock.t;
  opened : int -> 'c -> 'a -> 'r -> 's;
  closed : int -> 'c -> 'a -> 'r -> 's -> 'v option -> unit;
}

let span layer p ~kind f c a r =
  if not (on ()) then f c a r
  else begin
    let clock = p.clock c in
    let tok = enter layer ~kind ~now:(S4_util.Simclock.now clock) in
    let s = p.opened tok c a r in
    match f c a r with
    | v ->
      p.closed tok c a r s (Some v);
      finish tok ~now:(S4_util.Simclock.now clock);
      v
    | exception e ->
      p.closed tok c a r s None;
      abort tok ~now:(S4_util.Simclock.now clock);
      raise e
  end
