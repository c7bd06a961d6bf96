(** Append-only segment log over a simulated disk.

    This is the LFS-style layer of S4: the disk (minus a reserved
    superblock segment) is divided into fixed-size segments; blocks are
    appended to the open segment and buffered until {!sync} (or until
    the segment fills), so many small updates cluster into large
    sequential writes. Old data is never overwritten in place, which is
    what makes comprehensive versioning write-time free.

    The log also tracks per-block liveness for the cleaner: the object
    store {!kill}s a block when the version holding it ages out of the
    history pool, and fully dead segments can be reclaimed. *)

type t

type addr = int
(** Absolute block number on disk. [none] (-1) means "no block". *)

val none : addr

exception Log_full
(** Raised by {!append} when no free segment can be opened. *)

type seg_state = Free | Open | Closed

type seg_info = {
  seg_index : int;
  seg_state : seg_state;
  seg_epoch : int;  (** allocation order; 0 for never-used *)
  seg_live : int;  (** live blocks *)
  seg_written : int;  (** slots consumed (excluding summary) *)
}

type stats = {
  mutable appends : int;
  mutable flush_ops : int;  (** sync/close flushes that touched the disk *)
  mutable blocks_flushed : int;
  mutable summaries_written : int;
  mutable blocks_read : int;
  mutable segments_opened : int;
  mutable segments_reclaimed : int;
  mutable io_retries : int;  (** transient-fault re-issues (see {!set_io_retry}) *)
}

val create :
  ?block_size:int ->
  ?blocks_per_segment:int ->
  ?auto_reclaim:bool ->
  S4_disk.Sim_disk.t ->
  t
(** Format a fresh log on [disk]. Defaults: 4 KiB blocks, 128-block
    (512 KiB) segments, [auto_reclaim] true — when the log runs out of
    free segments it first reclaims fully dead closed segments (at no
    simulated cost; reclaiming a dead segment needs no I/O) before
    raising {!Log_full}. Segment 0 is reserved for the superblock. *)

val block_size : t -> int
val blocks_per_segment : t -> int
val disk : t -> S4_disk.Sim_disk.t
val clock : t -> S4_util.Simclock.t

val total_segments : t -> int
val free_segments : t -> int
val usable_blocks : t -> int
(** Data-block capacity of the whole log. *)

val live_blocks : t -> int
val utilization : t -> float
(** live / usable, in 0..1. *)

val charge_io : t -> bool -> unit
(** When set to [false], subsequent log I/O updates state and contents
    but does not advance the simulated clock or disk stats. Used to
    build "free cleaning" baselines. Default [true]. *)

val set_io_retry : t -> limit:int -> backoff_ms:float -> unit
(** Re-issue disk I/O that raises a transient {!S4_disk.Fault} fault,
    up to [limit] times per request with exponential backoff starting
    at [backoff_ms] (paid on the simulated clock). Retrying at this
    level is sound — the re-issued request targets the same sectors —
    whereas replaying a whole store operation is not. Permanent faults
    and exhausted retries propagate. Default: no retry. *)

(** {1 Writing} *)

val append : t -> Tag.t -> ?data:Bytes.t -> unit -> addr
(** Allocate the next block of the open segment, to be written at the
    next {!sync} (or segment close). [data], when given, must be
    exactly one block; the log and the disk below it may keep [data]
    itself, so the caller must not modify it afterwards. The returned
    address is final. *)

val sync : t -> unit
(** Flush buffered blocks of the open segment to disk (one sequential
    write). Cheap no-op when nothing is buffered. *)

val write_superblock : t -> Bytes.t -> unit
(** Overwrite the (in-place) superblock, padded to one block. *)

val read_superblock : t -> Bytes.t
(** Timed read of the superblock. *)

(** {1 Reading} *)

val read : t -> addr -> Bytes.t
(** Timed read of one block (free if the block is still buffered). *)

val read_run : t -> addr -> int -> int
(** [read_run t a n] charges a read of up to [n] blocks starting at [a]
    as one sequential disk operation, clamped to the written extent of
    [a]'s segment, and returns how many blocks [k >= 1] it covered:
    [a, a + k). Used for read-ahead. Charging is split from fetching:
    a caller that wants the contents takes them with {!peek}, at no
    further cost. *)

val peek : t -> addr -> Bytes.t
(** Contents without timing. *)

(** {1 Liveness and cleaning support} *)

val kill : t -> addr -> unit
(** Mark a block dead. Idempotent. *)

val is_live : t -> addr -> bool
val tag_of : t -> addr -> Tag.t option
(** Tag of a written block (live or dead), [None] if never written. *)

val seg_of : t -> addr -> int
val segments : t -> seg_info array
val seg_live_addrs : t -> int -> (addr * Tag.t) list
(** Live blocks of a segment, ascending. *)

val all_tagged : t -> (addr * Tag.t) list
(** Every written slot whose tag is known (live or dead), ascending by
    address. After {!reattach} this reflects what segment summaries and
    block probing could identify; used by owners that re-find their
    blocks by tag (checkpoint images, the audit trail's tails). *)

val reclaim_dead_segments : t -> int
(** Free closed segments with no live blocks; returns how many. *)

val stats : t -> stats

(** {1 Crash recovery} *)

val reattach : S4_disk.Sim_disk.t -> t
(** Rebuild log state from disk contents after a "crash": segment
    summaries identify closed segments; unsummarised segments are
    probed for self-identifying blocks. All blocks start dead — the
    store re-marks live blocks as it replays the journal. Reattach
    never reclaims: when no segment is free, none is opened until the
    first {!append}, which runs after the owners have rebuilt
    liveness. *)

val mark_live : t -> addr -> Tag.t -> unit
(** Declare a block live during recovery (idempotent). *)

val journal_blocks : t -> (addr * int * Jblock.entry list) list
(** All decodable journal blocks [(addr, prev, entries)] in segment
    epoch order then slot order; charges a sequential read per scanned
    segment. *)

val pp_stats : Format.formatter -> t -> unit
