type credential = { user : int; client : int; admin : bool }

let user_cred ~user ~client = { user; client; admin = false }
let admin_cred = { user = 0; client = 0; admin = true }

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
  | Flush_object of { oid : int64; until : int64 }
  | Set_window of { window : int64 }
  | Read_audit of { since : int64; until : int64 }
  | Verify_log of { from : S4_integrity.Chain.head option }

type error =
  | Not_found
  | Permission_denied
  | Object_deleted
  | No_space
  | Bad_request of string
  | Io_error of string

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

let op_name = function
  | Create _ -> "create"
  | Delete _ -> "delete"
  | Read _ -> "read"
  | Write _ -> "write"
  | Append _ -> "append"
  | Truncate _ -> "truncate"
  | Get_attr _ -> "getattr"
  | Set_attr _ -> "setattr"
  | Get_acl_by_user _ -> "getacl_user"
  | Get_acl_by_index _ -> "getacl_index"
  | Set_acl _ -> "setacl"
  | P_create _ -> "pcreate"
  | P_delete _ -> "pdelete"
  | P_list _ -> "plist"
  | P_mount _ -> "pmount"
  | Sync -> "sync"
  | Flush _ -> "flush"
  | Flush_object _ -> "flusho"
  | Set_window _ -> "setwindow"
  | Read_audit _ -> "readaudit"
  | Verify_log _ -> "verifylog"

let at_info = function None -> "" | Some t -> Printf.sprintf " at=%Ld" t

let op_info = function
  | Create _ -> ""
  | Delete { oid } -> Printf.sprintf "oid=%Ld" oid
  | Read { oid; off; len; at } -> Printf.sprintf "oid=%Ld off=%d len=%d%s" oid off len (at_info at)
  | Write { oid; off; len; _ } -> Printf.sprintf "oid=%Ld off=%d len=%d" oid off len
  | Append { oid; len; _ } -> Printf.sprintf "oid=%Ld len=%d" oid len
  | Truncate { oid; size } -> Printf.sprintf "oid=%Ld size=%d" oid size
  | Get_attr { oid; at } -> Printf.sprintf "oid=%Ld%s" oid (at_info at)
  | Set_attr { oid; attr } -> Printf.sprintf "oid=%Ld attr_len=%d" oid (Bytes.length attr)
  | Get_acl_by_user { oid; acl_user; at } ->
    Printf.sprintf "oid=%Ld user=%d%s" oid acl_user (at_info at)
  | Get_acl_by_index { oid; index; at } -> Printf.sprintf "oid=%Ld index=%d%s" oid index (at_info at)
  | Set_acl { oid; index; _ } -> Printf.sprintf "oid=%Ld index=%d" oid index
  | P_create { name; oid } -> Printf.sprintf "name=%s oid=%Ld" name oid
  | P_delete { name } -> Printf.sprintf "name=%s" name
  | P_list { at } -> String.trim (at_info at)
  | P_mount { name; at } -> Printf.sprintf "name=%s%s" name (at_info at)
  | Sync -> ""
  | Flush { until } -> Printf.sprintf "until=%Ld" until
  | Flush_object { oid; until } -> Printf.sprintf "oid=%Ld until=%Ld" oid until
  | Set_window { window } -> Printf.sprintf "window=%Ld" window
  | Read_audit { since; until } -> Printf.sprintf "since=%Ld until=%Ld" since until
  | Verify_log { from } -> (
    match from with
    | None -> ""
    | Some h -> Printf.sprintf "from=%d/%d" h.S4_integrity.Chain.epoch h.S4_integrity.Chain.records)

let target_oid = function
  | Delete { oid }
  | Read { oid; _ }
  | Write { oid; _ }
  | Append { oid; _ }
  | Truncate { oid; _ }
  | Get_attr { oid; _ }
  | Set_attr { oid; _ }
  | Get_acl_by_user { oid; _ }
  | Get_acl_by_index { oid; _ }
  | Set_acl { oid; _ }
  | Flush_object { oid; _ }
  | P_create { oid; _ } ->
    oid
  | Create _ | P_delete _ | P_list _ | P_mount _ | Sync | Flush _ | Set_window _ | Read_audit _
  | Verify_log _ ->
    0L

let is_mutation = function
  | Create _ | Delete _ | Write _ | Append _ | Truncate _ | Set_attr _ | Set_acl _ | P_create _
  | P_delete _ | Sync | Flush _ | Flush_object _ | Set_window _ ->
    true
  | Read _ | Get_attr _ | Get_acl_by_user _ | Get_acl_by_index _ | P_list _ | P_mount _
  | Read_audit _ | Verify_log _ ->
    false

let is_admin_op = function
  | Flush _ | Flush_object _ | Set_window _ | Read_audit _ | Verify_log _ -> true
  | Create _ | Delete _ | Read _ | Write _ | Append _ | Truncate _ | Get_attr _ | Set_attr _
  | Get_acl_by_user _ | Get_acl_by_index _ | Set_acl _ | P_create _ | P_delete _ | P_list _
  | P_mount _ | Sync ->
    false

(* Wire-size model: a fixed header (credential, op code, xid) plus
   payload. We do not serialise requests bit-for-bit — the network
   model only needs sizes. *)
let header = 40

let req_wire_bytes = function
  | Create { acl } -> header + Bytes.length (Acl.encode acl)
  | Delete _ -> header + 8
  | Read _ -> header + 24
  | Write { len; _ } -> header + 24 + len
  | Append { len; _ } -> header + 16 + len
  | Truncate _ -> header + 16
  | Get_attr _ -> header + 16
  | Set_attr { attr; _ } -> header + 8 + Bytes.length attr
  | Get_acl_by_user _ | Get_acl_by_index _ -> header + 20
  | Set_acl _ -> header + 24
  | P_create { name; _ } -> header + 8 + String.length name
  | P_delete { name } -> header + String.length name
  | P_list _ -> header + 8
  | P_mount { name; _ } -> header + 8 + String.length name
  | Sync -> header
  | Flush _ -> header + 8
  | Flush_object _ -> header + 16
  | Set_window _ -> header + 8
  | Read_audit _ -> header + 16
  | Verify_log { from } -> header + (match from with None -> 1 | Some _ -> 45)

let resp_wire_bytes = function
  | R_unit -> header
  | R_oid _ -> header + 8
  | R_data b -> header + Bytes.length b
  | R_size n -> header + n  (* synthetic data still crosses the wire *)
  | R_attr b -> header + Bytes.length b
  | R_acl _ -> header + 16
  | R_names names -> header + List.fold_left (fun acc n -> acc + String.length n + 4) 0 names
  | R_audit rs -> header + (64 * List.length rs)
  | R_verify r ->
    header + 64
    + List.fold_left (fun acc e -> acc + String.length e + 4) 0 r.S4_integrity.Chain.v_errors
  | R_error _ -> header + 4

let pp_error ppf = function
  | Not_found -> Format.fprintf ppf "not found"
  | Permission_denied -> Format.fprintf ppf "permission denied"
  | Object_deleted -> Format.fprintf ppf "object deleted"
  | No_space -> Format.fprintf ppf "no space"
  | Bad_request m -> Format.fprintf ppf "bad request: %s" m
  | Io_error m -> Format.fprintf ppf "I/O error: %s" m

let err_tag : error -> string = function
  | Not_found -> "not_found"
  | Permission_denied -> "denied"
  | Object_deleted -> "deleted"
  | No_space -> "no_space"
  | Bad_request _ -> "bad_request"
  | Io_error _ -> "io_error"

let error_to_string e = Format.asprintf "%a" pp_error e

(* The span fields every RPC-level layer (drive, shard router) records. *)
let trace_request tok req = S4_obs.Trace.set_oid tok (target_oid req)

let trace_response tok req = function
  | None -> ()
  | Some resp ->
    (match resp with
     | R_oid oid -> S4_obs.Trace.set_oid tok oid  (* Create learns its oid here *)
     | R_data b -> S4_obs.Trace.set_bytes tok (Bytes.length b)
     | R_error e -> S4_obs.Trace.fail tok (err_tag e)
     | _ -> ());
    (match req with
     | Write { len; _ } | Append { len; _ } -> S4_obs.Trace.set_bytes tok len
     | _ -> ())

let pp_resp ppf = function
  | R_unit -> Format.fprintf ppf "ok"
  | R_oid oid -> Format.fprintf ppf "oid %Ld" oid
  | R_data b -> Format.fprintf ppf "%d bytes" (Bytes.length b)
  | R_size n -> Format.fprintf ppf "%d bytes (synthetic)" n
  | R_attr b -> Format.fprintf ppf "attr (%d bytes)" (Bytes.length b)
  | R_acl e -> Acl.pp_entry ppf e
  | R_names names -> Format.fprintf ppf "names [%s]" (String.concat "; " names)
  | R_audit rs -> Format.fprintf ppf "%d audit records" (List.length rs)
  | R_verify r -> Format.fprintf ppf "verify: %a" S4_integrity.Chain.pp_result r
  | R_error e -> Format.fprintf ppf "error: %a" pp_error e
