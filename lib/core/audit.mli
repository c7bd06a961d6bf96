(** Drive-internal audit log.

    Every RPC handled by the drive — reads, writes and administrative
    commands alike — is recorded with its originating user and client.
    The log lives behind the security perimeter as a reserved,
    append-only stream that only the drive front end can write: records
    are packed into blocks that enter the same segment stream as data
    (which is what perturbs read locality in the paper's Figure 6
    microbenchmark). The audit log is not versioned; it is pruned only
    by aging.

    Records are buffered in memory and written out when a full block
    accumulates — the paper's "one disk write roughly every 750
    operations" behaviour — so a crash can lose the tail of the audit
    log, as in the prototype.

    The persisted log is additionally tamper-evident: each flushed
    record extends a SHA-256 hash chain ({!S4_integrity.Chain}), every
    block records its chain position, prior head and the prune floor,
    and the last block of each {!flush} seals the head after its own
    records under the next epoch. {!verify} re-walks the persisted
    chain and pinpoints any rewrite, drop, reorder or fork of sealed
    history. *)

type record = {
  at : int64;  (** simulated time of the request *)
  user : int;
  client : int;
  op : string;  (** RPC name, e.g. "write" *)
  oid : int64;  (** object concerned, 0 when not applicable *)
  info : string;  (** argument summary, e.g. "off=0 len=4096" *)
  ok : bool;  (** whether the drive accepted the request *)
}

type t

val create : ?enabled:bool -> S4_seglog.Log.t -> t
val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabling stops recording (used for the Figure 6 comparison);
    already-recorded history remains. *)

val append : t -> record -> unit
(** Buffer a record; a full buffer is first written out as unsealed
    blocks. *)

val flush : t -> unit
(** The durability barrier's audit write: the buffer goes out in blocks
    whose last one is sealed. With nothing buffered, one record-less
    sealed block covers records past the newest seal (a recovered
    unsealed tail); otherwise nothing is written. *)

val block_count : t -> int
val record_count : t -> int

val block_addrs : t -> int list
(** Addresses of live audit blocks, newest first (for cross-layer
    liveness checks). *)

val records : t -> ?since:int64 -> ?until:int64 -> unit -> record list
(** Chronological records in the given (inclusive) time range; reads
    audit blocks through the log (charged). *)

val expire : t -> cutoff:int64 -> int
(** Move the prune floor to the first record of the oldest block holding
    a record at or after the cutoff (never past the newest sealed block),
    write the floor in a record-less block, then free every block below
    it; returns blocks freed. A full log frees nothing. *)

val on_move : t -> old_addr:int -> new_addr:int -> unit
(** Cleaner relocation callback. *)

val recover : t -> unit
(** After a crash ({!S4_seglog.Log.reattach} + store recovery), re-find
    the live trail: blocks at or above the largest floor on disk, one
    copy of byte-identical blocks at one start, and re-mark them live. *)

(** {1 Block codec} Exposed for tests and forensic tools. *)

type block = {
  base : int64;  (** time of the first record; 0 for a record-less block *)
  start : int;  (** chain index of the first record *)
  prior : string;  (** chain head before it *)
  floor : int;  (** prune floor when the block was written *)
  seal : S4_integrity.Chain.head option;  (** set on the last block of a flush *)
  records : record list;
}

val decode_block : Bytes.t -> block option

val start_offset : int
val records_offset : Bytes.t -> int option
(** Byte offsets of the start-index varint and, in a decodable block,
    of the first record. *)

(** {1 Hash chain} *)

val canonical : record -> Bytes.t
(** The canonical encoding the hash chain runs over (independent of
    the block-level delta encoding). *)

val chained : t -> int
(** Global index of the next record to be chained (flushed records
    since format). *)

val sealed_head : t -> S4_integrity.Chain.head
(** Head pinned by the newest sealed block; {!S4_integrity.Chain.genesis}
    if nothing is sealed yet. *)

val verify :
  ?from:S4_integrity.Chain.head ->
  ?lenient_tail:bool ->
  t ->
  S4_integrity.Chain.verify_result
(** Re-walk the persisted chain from the log (forensic reads,
    uncharged). [from] resumes from a trusted head; [lenient_tail]
    accepts a torn final flush (crash recovery). *)
