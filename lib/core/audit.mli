(** Drive-internal audit log.

    Every RPC handled by the drive — reads, writes and administrative
    commands alike — is recorded with its originating user and client.
    The log lives behind the security perimeter as a reserved,
    append-only stream that only the drive front end can write: records
    are packed into blocks, each the trailing section (tail) of a
    journal block in the store's metadata stream, which enters the same
    segment stream as data (which is what perturbs read locality in the
    paper's Figure 6 microbenchmark). The audit log is not versioned;
    it is pruned only by aging.

    Records are buffered in memory and written out when a full block
    accumulates — the paper's "one disk write roughly every 750
    operations" behaviour — as an unsealed tail in a journal block with
    no entries. At each durability barrier the buffered records are
    {!seal}ed into a tail that rides in the store's last journal block,
    so a barrier writes no block of its own for the audit trail.

    The persisted log is additionally tamper-evident: each appended
    record extends a SHA-256 hash chain ({!S4_integrity.Chain}), every
    block records its chain position, prior head and the prune floor,
    and each barrier's tail seals the head after its own records under
    the next epoch. {!verify} re-walks the persisted chain and
    pinpoints any rewrite, drop, reorder or fork of sealed history. *)

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

val create : ?enabled:bool -> S4_store.Obj_store.t -> t
(** The trail of the drive whose store is given: every block it writes
    is a tail in one of the store's journal blocks, which the store
    holds for it. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabling stops recording (used for the Figure 6 comparison);
    already-recorded history remains. *)

val append : t -> record -> unit
(** Buffer a record; a full buffer is first written out as unsealed
    tails, each in a journal block with no entries
    ({!S4_store.Obj_store.append_tail}). The buffer is full when it
    would no longer fit a journal block as a barrier's tail. *)

val seal : t -> S4_store.Obj_store.tail option
(** The durability barrier's half of the audit trail, for
    {!S4_store.Obj_store.sync}: the buffered records sealed under the
    next epoch, as a tail for the store's last journal block. A buffer
    that outgrew that (flushes failed and kept their records) is first
    written out as unsealed tails. With nothing buffered,
    a record-less tail seals records past the newest seal (a recovered
    unsealed tail, or that flush); otherwise there is nothing to seal.
    A sealed tail that has not been appended yet (the barrier failed)
    is returned again, with the same epoch and head, until one is;
    records buffered after it are sealed behind it, and it then goes
    out first, in a journal block of its own. *)

val block_count : t -> int
val record_count : t -> int

val block_addrs : t -> int list
(** Addresses of the journal blocks holding the trail's live tails,
    newest first (for cross-layer liveness checks). *)

val records : t -> ?since:int64 -> ?until:int64 -> unit -> record list
(** Chronological records in the given (inclusive) time range; reads
    the tails' journal blocks through the log (charged). *)

val expire : t -> cutoff:int64 -> int
(** Move the prune floor to the first record of the oldest block holding
    a record at or after the cutoff (never past the newest sealed block),
    write the floor in a record-less tail, then release every block
    below it to the store, which frees its journal block once the
    block's entries are gone too; returns blocks released. A full log
    releases nothing. *)

val on_move : t -> old_addr:int -> new_addr:int -> unit
(** Cleaner relocation callback for the journal blocks holding the
    trail's tails. *)

val recover : t -> unit
(** After a crash ({!S4_seglog.Log.reattach} + store recovery), re-find
    the live trail among the tails in journal slots: those at or above
    the largest floor on disk, one copy of byte-identical blocks at one
    start, each held again in the store. *)

(** {1 Block codec} Exposed for tests and forensic tools. *)

type block = {
  base : int64;  (** time of the first record; 0 for a record-less block *)
  start : int;  (** chain index of the first record *)
  prior : string;  (** chain head before it *)
  floor : int;  (** prune floor when the block was written *)
  seal : S4_integrity.Chain.head option;  (** set on a barrier's tail *)
  records : record list;
}

val decode_block : Bytes.t -> block option
(** The audit block in [b]: the tail a journal block carries. *)

val start_offset : Bytes.t -> int option
val records_offset : Bytes.t -> int option
(** Byte offsets in [b] of the start-index varint and, in a decodable
    block, of the first record. *)

(** {1 Hash chain} *)

val canonical : record -> Bytes.t
(** The canonical encoding the hash chain runs over (independent of
    the block-level delta encoding). *)

val chained : t -> int
(** Global index of the next record to be chained (appended records
    since format). *)

val sealed_head : t -> S4_integrity.Chain.head
(** Head pinned by the newest seal, including a tail sealed but not yet
    appended (what the barrier under way makes durable);
    {!S4_integrity.Chain.genesis} if nothing is sealed yet. *)

val appended_head : t -> S4_integrity.Chain.head
(** Head pinned by the newest seal appended to the log: what a device
    barrier, which forces everything appended, may record as its
    anchor. *)

val verify :
  ?from:S4_integrity.Chain.head ->
  ?lenient_tail:bool ->
  t ->
  S4_integrity.Chain.verify_result
(** Re-walk the persisted chain from the log (forensic reads,
    uncharged). [from] resumes from a trusted head; [lenient_tail]
    accepts a torn final flush (crash recovery). *)
