(** Little-endian byte codecs for on-disk structures.

    All on-disk integers in this code base are little-endian. A
    [writer] appends into a growable buffer; a [reader] consumes a byte
    string with bounds checking, raising {!Decode_error} on truncation
    or corruption so callers can treat bad sectors uniformly. *)

exception Decode_error of string

(** {1 Raw accessors} *)

val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
(** 32-bit value returned as a non-negative OCaml int. *)

val set_u32 : Bytes.t -> int -> int -> unit
val get_i64 : Bytes.t -> int -> int64
val set_i64 : Bytes.t -> int -> int64 -> unit

(** {1 Growable writer} *)

type writer

val writer : ?capacity:int -> unit -> writer

val into : Bytes.t -> writer
(** A fixed writer that fills the given buffer in place from offset 0.
    Writing past its end raises [Invalid_argument]. *)

val w_u8 : writer -> int -> unit
val w_u16 : writer -> int -> unit
val w_u32 : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_int : writer -> int -> unit
(** Varint (LEB128) encoding of a non-negative int. *)

val varint_size : int -> int
(** Bytes {!w_int} writes for a non-negative int. *)

val w_bytes : writer -> Bytes.t -> unit
(** Length-prefixed (varint) byte string. *)

val w_string : writer -> string -> unit
val w_raw : writer -> Bytes.t -> unit
(** Raw append without a length prefix. *)

val length : writer -> int
val contents : writer -> Bytes.t

(** {1 Self-checking blocks}

    Every self-identifying on-disk block (journal, audit record and
    seal, segment summary, checkpoint chunk and pack) is framed the
    same way: its body from offset 0, zero padding, and the CRC-32 of
    everything before it in the last four bytes (little-endian). *)

val frame : size:int -> (writer -> unit) -> Bytes.t
(** [frame ~size body] is a fresh [size]-byte block whose body [body]
    writes in place. Raises [Invalid_argument] if the body leaves fewer
    than four bytes for the CRC. *)

val check_frame : Bytes.t -> bool
(** Whether the last four bytes of a block hold the CRC-32 of the rest. *)

(** {1 Reader} *)

type reader

val reader : ?pos:int -> Bytes.t -> reader
val r_u8 : reader -> int
val r_u16 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int64
val r_int : reader -> int
val r_bytes : reader -> Bytes.t
val r_string : reader -> string
val r_raw : reader -> int -> Bytes.t
val remaining : reader -> int
val position : reader -> int
