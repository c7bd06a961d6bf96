module Bcodec = S4_util.Bcodec
module Jblock = S4_seglog.Jblock
module Log = S4_seglog.Log

type addr = int

type op =
  | Create
  | Write of {
      off : int;
      len : int;
      old_size : int;
      new_size : int;
      blocks : (int * addr * addr) list;
    }
  | Truncate of { old_size : int; new_size : int; freed : (int * addr) list }
  | Set_attr of { old_attr : Bytes.t; new_attr : Bytes.t }
  | Set_acl of { old_acl : Bytes.t; new_acl : Bytes.t }
  | Delete of { old_size : int }
  | Checkpoint of { addrs : addr list }
  | Relocate of { moves : (int * addr * addr) list }

type t = { oid : int64; seq : int; time : int64; op : op }

let kind = function
  | Create -> 0
  | Write _ -> 1
  | Truncate _ -> 2
  | Set_attr _ -> 3
  | Set_acl _ -> 4
  | Delete _ -> 5
  | Checkpoint _ -> 6
  | Relocate _ -> 7

(* Addresses may be Log.none (-1); shift by one for varint encoding. *)
let w_addr w a = Bcodec.w_int w (a + 1)
let r_addr r = Bcodec.r_int r - 1

let encode_payload op =
  let w = Bcodec.writer () in
  (match op with
   | Create -> ()
   | Write { off; len; old_size; new_size; blocks } ->
     Bcodec.w_int w off;
     Bcodec.w_int w len;
     Bcodec.w_int w old_size;
     Bcodec.w_int w new_size;
     Bcodec.w_int w (List.length blocks);
     List.iter
       (fun (fblock, nw, old) ->
         Bcodec.w_int w fblock;
         w_addr w nw;
         w_addr w old)
       blocks
   | Truncate { old_size; new_size; freed } ->
     Bcodec.w_int w old_size;
     Bcodec.w_int w new_size;
     Bcodec.w_int w (List.length freed);
     List.iter
       (fun (fblock, a) ->
         Bcodec.w_int w fblock;
         w_addr w a)
       freed
   | Set_attr { old_attr; new_attr } ->
     Bcodec.w_bytes w old_attr;
     Bcodec.w_bytes w new_attr
   | Set_acl { old_acl; new_acl } ->
     Bcodec.w_bytes w old_acl;
     Bcodec.w_bytes w new_acl
   | Delete { old_size } -> Bcodec.w_int w old_size
   | Checkpoint { addrs } ->
     Bcodec.w_int w (List.length addrs);
     List.iter (w_addr w) addrs
   | Relocate { moves } ->
     Bcodec.w_int w (List.length moves);
     List.iter
       (fun (fblock, from_, to_) ->
         Bcodec.w_int w (fblock + 1);
         w_addr w from_;
         w_addr w to_)
       moves);
  Bcodec.contents w

let decode_payload kind payload =
  let r = Bcodec.reader payload in
  match kind with
  | 0 -> Create
  | 1 ->
    let off = Bcodec.r_int r in
    let len = Bcodec.r_int r in
    let old_size = Bcodec.r_int r in
    let new_size = Bcodec.r_int r in
    let n = Bcodec.r_int r in
    let blocks =
      List.init n (fun _ ->
          let fblock = Bcodec.r_int r in
          let nw = r_addr r in
          let old = r_addr r in
          (fblock, nw, old))
    in
    Write { off; len; old_size; new_size; blocks }
  | 2 ->
    let old_size = Bcodec.r_int r in
    let new_size = Bcodec.r_int r in
    let n = Bcodec.r_int r in
    let freed =
      List.init n (fun _ ->
          let fblock = Bcodec.r_int r in
          let a = r_addr r in
          (fblock, a))
    in
    Truncate { old_size; new_size; freed }
  | 3 ->
    let old_attr = Bcodec.r_bytes r in
    let new_attr = Bcodec.r_bytes r in
    Set_attr { old_attr; new_attr }
  | 4 ->
    let old_acl = Bcodec.r_bytes r in
    let new_acl = Bcodec.r_bytes r in
    Set_acl { old_acl; new_acl }
  | 5 ->
    let old_size = Bcodec.r_int r in
    Delete { old_size }
  | 6 ->
    let n = Bcodec.r_int r in
    Checkpoint { addrs = List.init n (fun _ -> r_addr r) }
  | 7 ->
    let n = Bcodec.r_int r in
    let moves =
      List.init n (fun _ ->
          let fblock = Bcodec.r_int r - 1 in
          let from_ = r_addr r in
          let to_ = r_addr r in
          (fblock, from_, to_))
    in
    Relocate { moves }
  | k -> raise (Bcodec.Decode_error (Printf.sprintf "Entry: unknown kind %d" k))

let decode (je : Jblock.entry) =
  { oid = je.Jblock.oid; seq = je.seq; time = je.time; op = decode_payload je.kind je.payload }

let to_jentry t =
  {
    Jblock.oid = t.oid;
    seq = t.seq;
    time = t.time;
    kind = kind t.op;
    payload = encode_payload t.op;
  }

let size t = Jblock.entry_size (to_jentry t)

let superseded_blocks = function
  | Create | Set_attr _ | Set_acl _ | Delete _ | Checkpoint _ | Relocate _ -> []
  | Write { blocks; _ } ->
    List.filter_map (fun (_, _, old) -> if old = Log.none then None else Some old) blocks
  | Truncate { freed; _ } -> List.map snd freed

let new_blocks = function
  | Create | Set_attr _ | Set_acl _ | Delete _ | Truncate _ | Relocate _ -> []
  | Write { blocks; _ } -> List.map (fun (_, nw, _) -> nw) blocks
  | Checkpoint { addrs } -> addrs

let pp_op ppf = function
  | Create -> Format.fprintf ppf "create"
  | Write { off; len; blocks; _ } ->
    Format.fprintf ppf "write off=%d len=%d (%d blocks)" off len (List.length blocks)
  | Truncate { old_size; new_size; _ } ->
    Format.fprintf ppf "truncate %d -> %d" old_size new_size
  | Set_attr _ -> Format.fprintf ppf "set_attr"
  | Set_acl _ -> Format.fprintf ppf "set_acl"
  | Delete _ -> Format.fprintf ppf "delete"
  | Checkpoint { addrs } -> Format.fprintf ppf "checkpoint (%d blocks)" (List.length addrs)
  | Relocate { moves } -> Format.fprintf ppf "relocate (%d moves)" (List.length moves)

let pp ppf t = Format.fprintf ppf "#%Ld.%d @%Ld %a" t.oid t.seq t.time pp_op t.op

let map_addr f a = if a = Log.none then a else f a

(* An op none of whose addresses [f] moves comes back as is, so a
   rewrite pass allocates only for the entries it changes. *)
let remap f op =
  let moved a = map_addr f a <> a in
  match op with
  | Write ({ blocks; _ } as w) when List.exists (fun (_, nw, old) -> moved nw || moved old) blocks ->
    Write { w with blocks = List.map (fun (fb, nw, old) -> (fb, map_addr f nw, map_addr f old)) blocks }
  | Truncate ({ freed; _ } as tr) when List.exists (fun (_, a) -> moved a) freed ->
    Truncate { tr with freed = List.map (fun (fb, a) -> (fb, map_addr f a)) freed }
  | Checkpoint { addrs } when List.exists moved addrs -> Checkpoint { addrs = List.map (map_addr f) addrs }
  | op -> op
