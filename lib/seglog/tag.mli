(** Identity of a log block, recorded in segment summaries.

    Every block written to the log carries a tag saying what it is and,
    where applicable, which object and file offset it belongs to. The
    cleaner uses tags to relocate live blocks; crash recovery uses them
    to find journal and checkpoint blocks. *)

type t =
  | Data of { oid : int64; fblock : int }
      (** object data; [fblock] is the block index within the object *)
  | Journal
      (** packed journal entries (possibly several objects), and the
          audit trail's tail as the block's trailing section when it
          carries one *)
  | Checkpoint of { oid : int64 }
      (** dedicated (multi-block) metadata image for one large object *)
  | Ckpack  (** packed checkpoint block: many small objects' images *)
  | Unknown
      (** assigned by crash-recovery probing to non-empty blocks it
          cannot identify (data and checkpoint blocks in a segment
          whose summary was never written); their owners re-identify
          and re-tag them via [mark_live] *)

val equal : t -> t -> bool
val encode : S4_util.Bcodec.writer -> t -> unit
val decode : S4_util.Bcodec.reader -> t
val pp : Format.formatter -> t -> unit

val oid : t -> int64 option
(** Owning object, when the tag has one. *)
