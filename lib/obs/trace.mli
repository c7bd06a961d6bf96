(** Span tracer for the simulated storage stack.

    A span covers one operation at one layer; spans nest by call
    structure (the currently open span is the parent of the next one
    opened), so a single client request yields one tree reaching from
    the NFS translator down to individual disk transfers. All times
    are simulated nanoseconds read from the layer's {!S4_util.Simclock}.

    {b Zero allocation when disabled.} A layer opens its spans through
    {!span}, which checks {!on} once per call; other instrumentation
    guards its hooks on {!on} itself and holds tokens in an [int].
    When tracing is off, {!on} is a single atomic read, no token is
    minted, and every setter is a no-op on {!null}; the traced and
    untraced executions are identical (the equivalence suite proves
    this bit-for-bit and clock-for-clock).

    {b Observationally free.} No function in this module advances a
    clock, touches a disk, or mutates anything outside the tracer's own
    buffers. Only {!span} reads a clock, and only while tracing is on;
    every other entry point takes [~now] from its caller.

    {b Domain-safe.} Span allocation and snapshots are serialized on a
    registry mutex; each domain keeps its own open-span stack in
    domain-local storage, so spans opened on a shard worker domain
    nest within that domain's call structure and root their own tree.
    A span's fields are written only by the domain that opened it;
    take {!spans} at quiescence. {!on} remains one atomic load. *)

type layer = Nfs | Net | Router | Drive | Store | Seglog | Disk

val layer_name : layer -> string

type span = {
  id : int;  (** index into {!spans} *)
  parent : int;  (** parent span id, or -1 for a root *)
  layer : layer;
  kind : string;  (** op name at that layer, e.g. ["write"] *)
  start_ns : int64;
  mutable stop_ns : int64;  (** {!unset} until finished *)
  mutable oid : int64;  (** -1 when not object-scoped *)
  mutable shard : int;  (** -1 when not routed *)
  mutable bytes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable faults : int;  (** permanent media faults surfaced *)
  mutable retries : int;  (** transient-fault retries absorbed *)
  mutable at_ns : int64;  (** time-based read target; {!unset} if none *)
  mutable cutoff_ns : int64;  (** detection-window cutoff at entry; {!unset} *)
  mutable charged_ns : int64;  (** fan-out slowest-member charge; {!unset} *)
  mutable disk_ns : int64;  (** device service time attributed; {!unset} *)
  mutable ok : bool;
  mutable err : string;  (** error tag when [not ok]; [""] otherwise *)
}

val unset : int64
(** Sentinel for optional [int64] span fields ([Int64.min_int]). *)

val null : int
(** The no-op token (-1); every setter ignores it. *)

(** {1 Lifecycle} *)

val on : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val clear : unit -> unit
(** Drop all recorded spans and the open-span stack. *)

val count : unit -> int
(** Spans recorded so far (open and finished). *)

val spans : unit -> span array
(** Snapshot of all recorded spans in creation (id) order. *)

(** {1 Recording} *)

val enter : layer -> kind:string -> now:int64 -> int
(** Open a span under the currently open one and return its token.
    Returns {!null} when tracing is disabled. *)

val finish : int -> now:int64 -> unit
(** Close the span. Any children left open (an exception unwound
    through an uninstrumented frame) are closed at the same instant
    and tagged ["abandoned"]. Feeds the {!Metrics} registry with a
    latency sample under ["<layer>/<kind>"] plus per-layer counters. *)

val abort : int -> now:int64 -> unit
(** {!finish} with [ok] forced to false. *)

val emit :
  layer ->
  kind:string ->
  start_ns:int64 ->
  stop_ns:int64 ->
  ?bytes:int ->
  ?disk_ns:int64 ->
  unit ->
  unit
(** Record an already-completed leaf span (used by the disk layer,
    whose operations are atomic in simulated time). The parent is the
    currently open span. No-op when disabled. *)

(** {1 Field setters — all no-ops on {!null}} *)

val set_oid : int -> int64 -> unit
val set_shard : int -> int -> unit
val set_bytes : int -> int -> unit
val add_cache : int -> hits:int -> misses:int -> unit
val add_faults : int -> int -> unit
val add_retries : int -> int -> unit
val set_at : int -> int64 -> unit
val set_cutoff : int -> int64 -> unit

val add_charged : int -> int64 -> unit
(** Accumulate fan-out charge (summed across charges in one span). *)

val set_disk_ns : int -> int64 -> unit
val fail : int -> string -> unit
(** Mark the span failed with an error tag (e.g. ["not_found"]). *)

(** {1 Spans around a call}

    The NFS translator, router, drive, object store and segment log
    open their spans through {!span}; a layer states only its own
    fields, in a {!probe}. *)

type ('c, 'a, 'r, 'v, 's) probe = {
  clock : 'c -> S4_util.Simclock.t;  (** the clock the span's times come from *)
  opened : int -> 'c -> 'a -> 'r -> 's;
      (** right after the span opens: sets the fields known on entry,
          snapshots the counters [closed] takes deltas of *)
  closed : int -> 'c -> 'a -> 'r -> 's -> 'v option -> unit;
      (** on every exit, before the span closes: counter deltas, and
          the result's fields ([None] when the call raised) *)
}

val span :
  layer ->
  ('c, 'a, 'r, 'v, 's) probe ->
  kind:string ->
  ('c -> 'a -> 'r -> 'v) ->
  'c ->
  'a ->
  'r ->
  'v
(** [span layer p ~kind f c a r] is [f c a r] inside one [layer] span
    named [kind]; the hooks see the same arguments (typically the
    layer's state, a credential or operand, and the request). The span
    is finished when [f] returns and aborted, then the exception
    re-raised, when it raises. With tracing off it is exactly
    [f c a r]: no clock read, no hook, and no allocation as long as [f]
    and the hooks are closed functions. *)

(** {1 Rendering} *)

val pp_span : Format.formatter -> span -> unit

val pp_tree : Format.formatter -> span array -> unit
(** Indented forest view of a span snapshot. *)
