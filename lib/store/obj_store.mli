(** Comprehensive-versioning object store (S4 drive internals).

    Every mutation — every write, truncate, attribute or ACL change,
    and delete — creates a new version: data blocks are appended to the
    segment log (never overwritten), and the metadata change is
    recorded as a compact journal entry carrying both the new and the
    superseded block pointers. Old versions remain readable with
    [?at:time] until they age out of the history pool (see
    {!Cleaner}).

    The store models the paper's S4 drive caches: a block (buffer)
    cache with segment read-ahead and an object (metadata) cache whose
    evictions checkpoint dirty metadata to the log.

    Data contents are retained only when [keep_data] is set (the
    default); with it off the store tracks layout and timing only,
    allowing multi-gigabyte experiments in bounded memory. *)

type t
type oid = int64
type addr = int

exception No_such_object of oid
(** Raised when an object does not exist (at the requested time). *)

exception Is_deleted of oid
(** Raised by mutations on a deleted object. *)

type config = {
  keep_data : bool;
  block_cache_bytes : int;  (** paper setup: 128 MiB *)
  object_cache_bytes : int;  (** paper setup: 32 MiB *)
  readahead_blocks : int;  (** blocks fetched per cache miss *)
  checkpoint_interval : int;  (** journal entries between checkpoints *)
}

val default_config : config

type stats = {
  mutable ops : int;
  mutable journal_entries : int;
  mutable journal_bytes : int;
  mutable journal_blocks_written : int;
  mutable checkpoint_blocks_written : int;
  mutable data_blocks_written : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
  mutable entries_expired : int;
  mutable blocks_expired : int;
  mutable objects_expired : int;
}

val create : ?config:config -> S4_seglog.Log.t -> t
val log : t -> S4_seglog.Log.t
val clock : t -> S4_util.Simclock.t
val config : t -> config
val stats : t -> stats

(** {1 Object operations}

    All mutations bump the object's version sequence number and are
    durable after the next {!sync}. *)

val create_object : t -> oid

val set_oid_allocator : t -> (unit -> oid) option -> unit
(** Delegate oid assignment to an external authority (the shard
    router's global oid space). The allocator must return oids unique
    across the whole array; {!create_object} keeps the local counter
    ahead of whatever it hands out. *)

val oid_allocator : t -> (unit -> oid) option
(** The allocator currently installed (for save/restore around a
    replay that must reuse a previously assigned oid). *)

val next_oid : t -> oid
(** The next oid the local counter would assign (strictly greater than
    every oid this store has seen). *)

val keep_content : t -> oid -> unit
(** Keep the object's content even when the store is timing-only
    ([keep_data] off): for drive-private metadata objects (the
    partition table, the integrity catalog), which must read back what
    was written. Writes, reads and cleaner moves charge exactly as for
    any other object. Not persistent: the owner registers the object
    again after {!recover}; its blocks on disk keep their content. *)

val delete_object : t -> oid -> unit
(** The object stays readable time-based; further mutation raises
    {!Is_deleted}. *)

val exists : t -> ?at:int64 -> oid -> bool
val size : t -> ?at:int64 -> oid -> int
val seq : t -> oid -> int
val created_time : t -> oid -> int64

val write : t -> oid -> off:int -> ?data:Bytes.t -> len:int -> unit -> unit
(** [data], when given, must be [len] bytes; required if the store
    keeps contents. Extends the object as needed. *)

val append : t -> oid -> ?data:Bytes.t -> len:int -> unit -> unit
val truncate : t -> oid -> size:int -> unit

val read : t -> ?at:int64 -> oid -> off:int -> len:int -> Bytes.t
(** Clamped at the object's size (short reads at EOF). Holes and
    content-free blocks read as zeros. [?at] reads the version that was
    current at that time.
    @raise No_such_object if the object doesn't exist at that time. *)

val get_attr : t -> ?at:int64 -> oid -> Bytes.t
val set_attr : t -> oid -> Bytes.t -> unit
val get_acl_raw : t -> ?at:int64 -> oid -> Bytes.t
val set_acl_raw : t -> oid -> Bytes.t -> unit

val current_acl_raw : t -> oid -> Bytes.t
(** Latest ACL bytes even if the object is deleted — deleted objects
    keep their ACL for history access-control decisions.
    Raises [No_such_object] for unknown oids. *)

type tail = {
  section : Bytes.t;  (** an audit trail's body, encoded *)
  on_append : addr -> unit;  (** told the journal block it landed in *)
}
(** The audit half of a metadata block: every audit body is the
    trailing section of a journal block. *)

val sync : ?tail:tail -> t -> unit
(** Flush pending journal entries into journal blocks and force all
    buffered log blocks to disk (NFSv2-style stability). [tail] rides
    as the trailing section of the last journal block: beside the last
    entries when it fits, else (or with nothing pending) in a journal
    block with no entries. Its [on_append] runs once that block is
    appended, before the log is forced; the block is then held for the
    audit trail (see {!hold_tail}). A sync that fails before appending
    it never calls [on_append]. *)

(** {1 Shared metadata blocks}

    A journal block carrying an audit tail has two halves: its entries
    (possibly none), one reference each, and the tail, one reference
    while the audit trail holds it. The block dies when both halves
    have let go, and the cleaner moves it once, reporting the move
    through [on_audit_move] (see {!compact_segment}). *)

val append_tail : t -> tail -> unit
(** Append [tail] alone, in a journal block with no entries, held as in
    {!sync} (an audit body written between barriers). Nothing else is
    flushed or forced. *)

val hold_tail : t -> addr -> unit
(** The audit trail takes its reference on the journal block at [addr]
    (at append, and again at recovery, which also marks it live).
    Idempotent. *)

val release_tail : t -> addr -> unit
(** The audit trail lets go of the tail at [addr] (expiry). *)

val holds_tail : t -> addr -> bool

val list_objects : t -> oid list
(** Existing (non-deleted) objects. *)

val list_all : t -> oid list
(** Including deleted-but-still-in-window objects. *)

(** {1 History} *)

val journal : t -> oid -> Entry.t list
(** Retained journal entries, newest first.
    @raise No_such_object for unknown oids. *)

val versions : t -> oid -> Entry.t list
(** Like {!journal} but without [Checkpoint] entries: one element per
    user-visible version transition. *)

val oldest_time : t -> oid -> int64 option
(** Time of the oldest retained entry. *)

val expire : t -> cutoff:int64 -> unit
(** Roll off journal entries strictly older than [cutoff]: kill the
    blocks they superseded, release empty journal blocks, and forget
    objects whose delete has aged out. Called by the cleaner; the
    cutoff is [now - detection_window]. *)

val expire_one : t -> oid -> cutoff:int64 -> unit
(** {!expire} for a single object (administrative FlushO).
    @raise No_such_object for unknown oids. *)

val history_block_count : t -> int
(** Live blocks that belong to the history pool only (not reachable
    from any current object state, not journal/checkpoint blocks). *)

val current_block_count : t -> int
val metadata_block_count : t -> int

(** {1 History migration (shard rebalancing)}

    Device-independent capture and replay of an object's entire
    retained version chain. [import_history] on another store replays
    the history block-for-block with the original sequence numbers and
    timestamps, so every in-window version answers identically on the
    new home — the detection-window guarantee survives migration. *)

type xop =
  | X_create
  | X_write of {
      off : int;
      len : int;
      old_size : int;
      new_size : int;
      blocks : (int * Bytes.t option) list;
          (** (fblock, full post-write content); content is [None] in
              timing-only mode *)
    }
  | X_truncate of { old_size : int; new_size : int }
  | X_set_attr of { old_attr : Bytes.t; new_attr : Bytes.t }
  | X_set_acl of { old_acl : Bytes.t; new_acl : Bytes.t }
  | X_delete of { old_size : int }

type xentry = { x_seq : int; x_time : int64; x_op : xop }

type xbase = {
  xb_seq : int;
  xb_size : int;
  xb_attr : Bytes.t;
  xb_acl : Bytes.t;
  xb_blocks : (int * Bytes.t option) list;
}
(** Rolled-back state just before the oldest retained entry; present
    only when the object's Create entry has already aged out. *)

type export = {
  x_oid : oid;
  x_created : int64;
  x_base : xbase option;
  x_entries : xentry list;  (** oldest first; no Checkpoint/Relocate *)
}

val export_history : t -> oid -> export
(** Capture the object's full retained history, charging real reads
    for every block streamed off the source.
    @raise No_such_object for unknown oids. *)

val import_history : t -> export -> unit
(** Replay an exported history onto this store. The object must not
    already exist here. When the export carries a base state, a
    checkpoint image is written immediately (no journal entry covers
    the base); the caller must {!sync} afterwards to make the whole
    import durable. *)

val forget_object : t -> oid -> unit
(** Drop every trace of the object from this store — entries, data and
    history blocks, checkpoints, pending journal records — reclaiming
    the space. Used by the migrator after a verified cut-over; this is
    an owner-side administrative purge, not a client-reachable op.
    @raise No_such_object for unknown oids. *)

(** {1 Checkpoints and recovery} *)

val checkpoint_object : t -> oid -> unit
(** Force a metadata checkpoint (normally automatic). *)

val recover : ?config:config -> S4_seglog.Log.t -> t
(** Rebuild a store from a re-attached log (see
    {!S4_seglog.Log.reattach}): replays every decodable journal block,
    loads the newest checkpoint image per object, re-applies newer
    entries forward, and re-marks live blocks. Pending (unsynced)
    state from before the crash is lost, as it should be. *)

val check : ?extra_live:addr list -> t -> string list
(** Invariant violations (empty = healthy): current table blocks live
    and correctly tagged, retained history blocks live, journal
    refcounts consistent, live-block accounting matches. [extra_live]
    are the audit trail's blocks, which must be exactly the journal
    blocks whose tail the store holds. *)

val drop_caches : t -> unit
(** Empty the block and object caches (cold-cache experiment phases);
    no dirty state is lost — metadata lives in [objects], and dirty
    journal entries are in [pending]. *)

val cache_stats : t -> int * int
(** Block-cache (hits, misses). *)

val pp_stats : Format.formatter -> t -> unit

(** {1 Cleaner mechanism} *)

val compact_segment :
  t -> seg:int -> ?on_audit_move:(addr -> addr -> unit) -> unit -> (int, string) result
(** Move every live block out of a closed segment so it can be
    reclaimed: data blocks are re-appended and all in-memory references
    rewritten (a [Relocate] journal entry records the moves for
    recovery), journal blocks are re-homed, checkpoints are rewritten
    fresh, and the moves of journal blocks holding an audit tail are
    reported through [on_audit_move] so the audit trail can update its
    index. Returns the number of blocks
    moved; [Error _] if the segment is not closed. The caller should
    {!sync} afterwards. *)
