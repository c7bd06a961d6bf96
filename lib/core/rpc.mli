(** S4 remote procedure calls (the paper's Table 1).

    Requests carry the caller's credential — the drive, not the host
    OS, decides what is allowed. Read-type operations take an optional
    [at] time for history-pool access. All modifications create new
    versions; nothing a client can send destroys data inside the
    detection window. The administrative commands ([Flush],
    [Flush_object], [Set_window], [Read_audit]) require the admin
    credential. *)

type credential = {
  user : int;
  client : int;  (** originating client machine *)
  admin : bool;  (** secure administrative access (e.g. via a physical
                     switch or well-protected key) *)
}

val user_cred : user:int -> client:int -> credential
val admin_cred : credential

type req =
  | Create of { acl : Acl.t }
  | Delete of { oid : int64 }
  | Read of { oid : int64; off : int; len : int; at : int64 option }
  | Write of { oid : int64; off : int; len : int; data : Bytes.t option }
  | Append of { oid : int64; len : int; data : Bytes.t option }
  | Truncate of { oid : int64; size : int }
  | Get_attr of { oid : int64; at : int64 option }
  | Set_attr of { oid : int64; attr : Bytes.t }
  | Get_acl_by_user of { oid : int64; acl_user : int; at : int64 option }
  | Get_acl_by_index of { oid : int64; index : int; at : int64 option }
  | Set_acl of { oid : int64; index : int; entry : Acl.entry }
  | P_create of { name : string; oid : int64 }
  | P_delete of { name : string }
  | P_list of { at : int64 option }
  | P_mount of { name : string; at : int64 option }
  | Sync
  | Flush of { until : int64 }
      (** admin: age out all versions older than [until] *)
  | Flush_object of { oid : int64; until : int64 }
  | Set_window of { window : int64 }
  | Read_audit of { since : int64; until : int64 }
  | Verify_log of { from : S4_integrity.Chain.head option }
      (** admin: re-walk the persisted audit hash chain, optionally
          resuming from a previously trusted head *)

type error =
  | Not_found
  | Permission_denied
  | Object_deleted
  | No_space
  | Bad_request of string
  | Io_error of string
      (** a permanent media fault the drive could not retry through *)

type resp =
  | R_unit
  | R_oid of int64
  | R_data of Bytes.t
  | R_size of int
  | R_attr of Bytes.t
  | R_acl of Acl.entry
  | R_names of string list
  | R_audit of Audit.record list
  | R_verify of S4_integrity.Chain.verify_result
  | R_error of error

val op_name : req -> string
(** Lower-case RPC name for audit records. *)

val op_info : req -> string
(** Compact argument rendering for audit records. *)

val target_oid : req -> int64
(** The object a request names; [0L] when it names none. Audit records
    and the RPC-level trace spans both carry it. *)

val trace_request : int -> req -> unit
val trace_response : int -> req -> resp option -> unit
(** The span fields every RPC-level layer (drive, shard router) records:
    the target oid on entry; on return the allocated oid, the bytes
    read or written and the error tag. [None] means the call raised. *)

val is_mutation : req -> bool
(** Whether the request changes drive state (and thus must reach every
    replica of a mirrored pair, or be journalled for a lagging one).
    Shared by [Mirror] and the shard [Router]. *)

val is_admin_op : req -> bool

val req_wire_bytes : req -> int
(** Estimated on-the-wire request size (header + arguments + data). *)

val resp_wire_bytes : resp -> int
val pp_error : Format.formatter -> error -> unit
val pp_resp : Format.formatter -> resp -> unit

val err_tag : error -> string
(** Stable short tag for an error ([not_found], [denied], [deleted],
    [no_space], [bad_request], [io_error]). The single home for error
    naming: trace spans, the net server, the router and the translator
    all share it. *)

val error_to_string : error -> string
(** [pp_error] rendered to a string, for one-line diagnostics. *)
