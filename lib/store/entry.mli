(** Semantic journal entries (the store-defined payload of
    {!S4_seglog.Jblock.entry}).

    Every mutation of an object is described by exactly one entry
    carrying both the *new* and the *old* state it supersedes — enough
    to roll an object's metadata backward for time-based reads and to
    reclaim superseded blocks once an entry ages out of the detection
    window. This is the paper's journal-based metadata: a write through
    an indirect block costs one compact entry instead of a new inode
    and indirect-block chain. *)

type addr = int

type op =
  | Create
  | Write of {
      off : int;
      len : int;
      old_size : int;
      new_size : int;
      blocks : (int * addr * addr) list;
          (** (file block index, new block, superseded block or
              {!S4_seglog.Log.none}) *)
    }
  | Truncate of {
      old_size : int;
      new_size : int;
      freed : (int * addr) list;  (** (file block index, superseded block) *)
    }
  | Set_attr of { old_attr : Bytes.t; new_attr : Bytes.t }
  | Set_acl of { old_acl : Bytes.t; new_acl : Bytes.t }
  | Delete of { old_size : int }
  | Checkpoint of { addrs : addr list }
      (** location of a full metadata checkpoint image *)
  | Relocate of { moves : (int * addr * addr) list }
      (** cleaner moved blocks: (file block index or -1, from, to).
          Replay must remap [from]->[to] in all earlier entries and in
          the block table; in-memory state is rewritten eagerly, so
          this entry exists for on-disk recovery only. *)

type t = {
  oid : int64;
  seq : int;  (** per-object version number, 1-based *)
  time : int64;  (** simulated ns *)
  op : op;
}

val kind : op -> int
val encode_payload : op -> Bytes.t
val decode : S4_seglog.Jblock.entry -> t
(** @raise S4_util.Bcodec.Decode_error on unknown kind or bad payload. *)

val to_jentry : t -> S4_seglog.Jblock.entry
val size : t -> int
(** Encoded size in a journal block, bytes. *)

val superseded_blocks : op -> addr list
(** Blocks this entry pushed into the history pool (the "old" block
    pointers). *)

val new_blocks : op -> addr list

val remap : (addr -> addr) -> op -> op
(** Rewrite every block address through the given map (used when the
    cleaner relocates blocks). An op the map leaves unchanged is
    returned physically equal. *)

val pp : Format.formatter -> t -> unit
