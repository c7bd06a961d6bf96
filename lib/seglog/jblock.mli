(** Journal block codec.

    Journal entries describe metadata mutations compactly (the paper's
    "journal-based metadata"). The segment log treats entry payloads as
    opaque — the object store defines their meaning — but fixes the
    framing: a journal block packs entries for the changes made since
    the previous sync, carries a backward pointer to the previous
    journal block (the paper's backward-in-time chaining), and is
    self-identifying (magic + CRC) so crash recovery can find journal
    blocks even in a segment whose summary was never written.

    A block may also carry one trailing section after its entries,
    opaque to the log: the audit trail's body (a tail), which is never
    a block of its own — a barrier's sealed tail rides in its last
    journal block, and a tail written between barriers in one with no
    entries. A block without a section encodes exactly as it would if
    sections did not exist. *)

type entry = {
  oid : int64;  (** object the change applies to *)
  seq : int;  (** per-object version sequence number *)
  time : int64;  (** simulated time of the change, ns *)
  kind : int;  (** store-defined operation code *)
  payload : Bytes.t;  (** store-defined operation arguments *)
}

val entry_size : entry -> int
(** Encoded size of one entry, bytes. *)

val encoded_size : seq:int -> payload_len:int -> int
(** [entry_size] of an entry with this [seq] and a payload of
    [payload_len] bytes, for callers that size an entry before encoding
    its payload. *)

val header_size : int
(** Fixed per-block overhead (magic, prev pointer, count, CRC). *)

val encode : block_size:int -> prev:int -> ?tail:Bytes.t -> entry list -> Bytes.t
(** Block-sized buffer (zero padded), with [tail] as its trailing
    section. Raises [Invalid_argument] if the entries and the section do
    not fit. *)

val decode : Bytes.t -> (int * entry list) option
(** [decode b] is [Some (prev, entries)] if [b] is a well-formed
    journal block (magic and CRC check out), [None] otherwise. *)

val fits : block_size:int -> current:int -> entry -> bool
(** Whether an entry of the given size still fits in a block already
    holding [current] bytes of entries. *)

val tail_fits : block_size:int -> current:int -> int -> bool
(** Whether a trailing section of the given length still fits in a
    block already holding [current] bytes of entries. *)

val tail : Bytes.t -> (int * int) option
(** [tail b] is [Some (off, len)], the place of the trailing section in
    [b], when [b] is a well-formed journal block that carries one. *)
