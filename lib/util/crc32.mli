(** CRC-32 (IEEE 802.3 polynomial, reflected) used to protect on-disk
    structures (segment summaries, journal, audit and checkpoint
    blocks) and wire frames.

    The implementation is slice-by-8 over native ints: eight bytes per
    step through eight 256-entry tables, with a bytewise tail. It
    matches the output of POSIX [cksum -o 3] / zlib [crc32]. Values
    are native ints in [0, 2{^32}). *)

type t = int

val init : t
(** Initial accumulator (all ones, pre-inverted). *)

val update : t -> Bytes.t -> pos:int -> len:int -> t
(** [update acc b ~pos ~len] folds [len] bytes of [b] starting at [pos]
    into the accumulator. Raises [Invalid_argument] on bad ranges. *)

val zeros : t -> int -> t
(** [zeros acc k] is [update acc] over [k] zero bytes, computed without
    reading them: the register is multiplied by x{^8k} mod P, at most
    one multiplication per nonzero base-256 digit of [k]. Raises
    [Invalid_argument] if [k] is negative. *)

val finish : t -> int
(** Final inversion. *)

val bytes : Bytes.t -> int
(** [bytes b] is the CRC-32 of all of [b]. *)

val string : string -> int
(** [string s] is the CRC-32 of all of [s]. *)

val sub : Bytes.t -> pos:int -> len:int -> int
(** CRC-32 of a byte range. *)
