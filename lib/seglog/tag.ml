module Bcodec = S4_util.Bcodec

type t =
  | Data of { oid : int64; fblock : int }
  | Journal
  | Checkpoint of { oid : int64 }
  | Ckpack
  | Unknown

let equal a b = a = b

(* Kinds 3, 4 and 5 are retired: they do not decode, and no kind
   takes their bytes. *)
let encode w = function
  | Data { oid; fblock } ->
    Bcodec.w_u8 w 0;
    Bcodec.w_i64 w oid;
    Bcodec.w_int w fblock
  | Journal -> Bcodec.w_u8 w 1
  | Checkpoint { oid } ->
    Bcodec.w_u8 w 2;
    Bcodec.w_i64 w oid
  | Ckpack -> Bcodec.w_u8 w 7
  | Unknown -> Bcodec.w_u8 w 6

let decode r =
  match Bcodec.r_u8 r with
  | 0 ->
    let oid = Bcodec.r_i64 r in
    let fblock = Bcodec.r_int r in
    Data { oid; fblock }
  | 1 -> Journal
  | 2 ->
    let oid = Bcodec.r_i64 r in
    Checkpoint { oid }
  | 6 -> Unknown
  | 7 -> Ckpack
  | k -> raise (Bcodec.Decode_error (Printf.sprintf "Tag: bad kind %d" k))

let pp ppf = function
  | Data { oid; fblock } -> Format.fprintf ppf "data(%Ld,%d)" oid fblock
  | Journal -> Format.fprintf ppf "journal"
  | Checkpoint { oid } -> Format.fprintf ppf "checkpoint(%Ld)" oid
  | Ckpack -> Format.fprintf ppf "ckpack"
  | Unknown -> Format.fprintf ppf "unknown"

let oid = function
  | Data { oid; _ } | Checkpoint { oid } -> Some oid
  | Journal | Ckpack | Unknown -> None
