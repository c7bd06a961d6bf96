(** Tamper-evident hash chain over the audit trail.

    Every audit record extends a running SHA-256 head
    ([head' = SHA256(head || canonical_record)]); the last block of each
    durability barrier's flush seals the head after its own records
    under the next epoch number. A drive-level attacker can truncate the
    chain to a shorter prefix (indistinguishable from a crash, and
    reported as tail loss when past the newest seal), but cannot
    rewrite, drop, reorder or fork any sealed record without {!verify}
    pinpointing the damage. *)

type head = {
  epoch : int;  (** sealing flushes so far; 0 = nothing sealed yet *)
  records : int;  (** records chained up to this head *)
  hash : string;  (** 32-byte SHA-256 running digest *)
}

val hash_len : int
val genesis_hash : string
val genesis : head

val extend : string -> Bytes.t -> string
(** [extend head canon] is the head after chaining one record. *)

val extend_all : string -> Bytes.t list -> string
val equal_head : head -> head -> bool
val pp_head : Format.formatter -> head -> unit
val short_hex : string -> string

val write_head : S4_util.Bcodec.writer -> head -> unit
val read_head : S4_util.Bcodec.reader -> head
(** Raises [Bcodec.Decode_error] on truncated or negative input. *)

(** {1 Verification} *)

type block = { b_start : int; b_prior : string; b_canons : Bytes.t list; b_seal : head option }
(** An audit block: global index of its first record, the chain head
    before it, the canonical encodings of its records, and, when it
    closes a barrier's flush, the head after them. *)

type item = Block of block | Bad of string

type verify_result = {
  v_records : int;
  v_sealed : int;
  v_epochs : int;
  v_head : head option;
  v_tail : int;
  v_pruned : int;
  v_first_bad : int;  (** global index of the first provably bad record; -1 = none *)
  v_errors : string list;
}

val verify : ?from:head -> ?lenient_tail:bool -> item list -> verify_result
(** Pure chain verification. [from] is a previously trusted head that
    must still lie on the chain (incremental verification / rollback
    detection). [lenient_tail] accepts undecodable blocks — the kill -9
    recovery case, where the final flush can be torn: its seal travels
    in its last block, so a torn flush only shortens the chain, and
    losing a block anywhere else still leaves a gap the walk reports. *)

val clean : verify_result -> bool
val pp_result : Format.formatter -> verify_result -> unit

val write_result : S4_util.Bcodec.writer -> verify_result -> unit
val read_result : ?max_errors:int -> S4_util.Bcodec.reader -> verify_result
