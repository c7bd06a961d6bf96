(** The S4 drive: a self-securing storage device.

    This is the security perimeter of the paper. The drive is a
    single-purpose device exporting only the Table-1 RPC interface; it
    verifies every command against the caller's credential and the
    target object's ACL, audits every request (including rejected
    ones), versions every modification, and guarantees that versions
    survive for the detection window regardless of what commands the —
    possibly compromised — host sends. Administrative commands need the
    separate admin credential, modelling a physical switch or
    well-protected key.

    The drive owns the object store, the cleaner, the audit log, the
    partition (named-object) table — itself an ordinary versioned
    object, per the paper — and the DoS throttle. *)

type t

type config = {
  store : S4_store.Obj_store.config;
  window : int64;  (** guaranteed detection window, ns *)
  audit_enabled : bool;
  throttle : Throttle.config option;  (** [None] disables throttling *)
  history_reserve : float;
      (** fraction of capacity budgeted for the history pool, used to
          compute pool pressure for the throttle *)
  cleaner_live_threshold : float;
  cleaner_max_segments : int;
  cpu_us_per_rpc : float;
      (** drive firmware processing cost per request (600 MHz-era
          user-level server) *)
  io_retry_limit : int;
      (** transient-fault re-issues per disk I/O (see
          {!S4_seglog.Log.set_io_retry}) *)
  io_retry_backoff_ms : float;  (** initial retry backoff, doubling *)
}

val default_config : config

val format : ?config:config -> S4_disk.Sim_disk.t -> t
(** Initialise a fresh self-securing drive on the disk: lays out the
    segment log, creates the partition-table object and writes the
    superblock. *)

val attach : ?config:config -> S4_disk.Sim_disk.t -> t
(** Crash recovery: rebuild the drive from on-disk state (segment
    summaries, journal blocks and the audit tails they carry,
    checkpoints, superblock). Unsynced pre-crash state is lost. The
    device-held anchor must lie on the recovered audit chain (a chain
    newer than the anchor is ordinary crash state); otherwise the drive
    comes up {!degraded}, {!fsck} reports the anchor, and the event is
    recorded on the audit trail (see {!record_event}). Raises
    [Invalid_argument] on a disk without a superblock, or one written
    in another on-disk format version (the message names both). *)

val submit : t -> Rpc.credential -> ?sync:bool -> Rpc.req array -> Rpc.resp array
(** Process a batch of RPCs inside the perimeter. Each request gets
    full per-request treatment — throttle check, permission check,
    execution, audit record, trace span — in array order; response
    [i] answers request [i]. [?sync] is the drive's op+sync batching
    generalised to group commit: ONE log flush + sync barrier after
    the last request makes the whole batch (and its audit records)
    durable at once. An empty batch with [sync:true] is a pure
    barrier. If the end-of-batch barrier fails, every response that
    claimed success is rewritten to the barrier's [Io_error]. Media
    faults surface as [R_error Io_error] after the configured retries;
    the only exception that escapes is {!S4_disk.Fault.Crashed} — a
    crashed device has no valid in-memory state, the owner must
    {!attach} a fresh drive. *)

val handle : t -> Rpc.credential -> Rpc.req -> Rpc.resp
(** Run one request with the same per-request treatment, and pay no
    durability barrier: barriers come only from {!submit} [~sync:true]
    or an explicit [Sync] request. A request naming a negative oid
    answers [Bad_request] and is audited as naming no object. *)

val barrier : t -> Rpc.error option
(** The durability barrier on its own: seal buffered audit records into
    a tail, then sync the store, whose last journal block carries the
    tail (see {!Audit.seal}). [None] on success; [Some (Io_error _)] if the
    media failed while persisting (the drive keeps serving, degraded);
    [Some No_space] if the log is full.
    Exposed so multi-drive layers (mirror, shard router) can end their
    own batches with one barrier per member. *)

val capacity : t -> int * int
(** (total bytes, free bytes) of the backing log. *)

val backend : t -> Backend.t
(** This drive as the uniform {!Backend.t} surface. *)

val clock : t -> S4_util.Simclock.t
val store : t -> S4_store.Obj_store.t

val ptable_oid : t -> int64
(** The oid of this drive's partition-table object (drive-private
    metadata: a shard router must exclude it from migration). *)

val named_oid : t -> string -> int64 option
(** Look a name up in the partition table without the RPC surface: no
    audit record, no cpu charge (array-internal bootstrap). *)

val register_name : t -> string -> int64 -> unit
(** Silent counterpart of [P_create], for drive/array-private objects.
    Raises [Invalid_argument] if the name exists. *)

val log : t -> S4_seglog.Log.t
val audit : t -> Audit.t
val cleaner : t -> S4_store.Cleaner.t
val throttle : t -> Throttle.t option

val window : t -> int64
val detection_cutoff : t -> int64
(** Oldest time guaranteed recoverable right now ([now - window]). *)

val run_cleaner : t -> S4_store.Cleaner.report
(** One background-cleaner pass (expire + reclaim + compact). Keeps
    the audit index consistent across relocations and refreshes pool
    pressure. *)

val pool_pressure : t -> float
(** History-pool pressure in 0..1 (1 = reserve exhausted). *)

val fsck : t -> string list
(** Full cross-layer invariant check; empty = healthy. Includes the
    device anchor check made at {!attach}. *)

val record_event : t -> op:string -> info:string -> unit
(** Put a fail-closed event ({!attach}'s off-chain anchor, an array's
    undecodable catalog) on the audit trail: one record with
    [ok = false], the admin principal and no object. *)

val ops_handled : t -> int

(** {1 Degraded-mode reporting}

    A drive that has seen permanent media faults keeps serving what it
    can, but reports itself degraded so an operator (or the mirror
    layer) can schedule replacement. *)

val io_errors : t -> int
(** RPCs that failed on a permanent (or retry-exhausted) media fault. *)

val audit_drops : t -> int
(** Requests whose audit flush failed on a media fault. Their records
    stay buffered for the next flush. *)

val degraded : t -> bool
(** Whether the drive has seen a media fault, or attached with its
    device anchor off the recovered audit chain. *)

val pp_stats : Format.formatter -> t -> unit
