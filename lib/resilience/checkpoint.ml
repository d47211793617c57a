type damage = Torn_tail | Corrupt

let damage_to_string = function
  | Torn_tail -> "torn-tail"
  | Corrupt -> "corrupt"

type t = {
  table : (string, int) Hashtbl.t;   (* id -> attempts *)
  mutable rev_order : string list;
  path : string option;
  mutable chan : out_channel option;  (* cached append channel *)
  mutable skipped : (int * damage) list;  (* bad journal lines, 1-based, reverse *)
}

(* One line per completion: "<attempts> <escaped id>", written under a
   {!Store.Record.seal_line} checksum.  Escaping keeps ids with spaces
   and newlines on one journal line; the seal turns silent corruption
   into a detected, classified skip.  [mark] only writes [%d] of a
   count >= 1, so anything but decimal digits of such a value is
   damage too. *)
let line_of ~id ~attempts = Printf.sprintf "%d %s" attempts (String.escaped id)

let parse_attempts s =
  if s = "" || not (String.for_all (function '0' .. '9' -> true | _ -> false) s)
  then None
  else
    match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None

let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i -> (
      let id = String.sub line (i + 1) (String.length line - i - 1) in
      match parse_attempts (String.sub line 0 i) with
      | None -> None
      | Some attempts -> (
          match Scanf.unescaped id with
          | id -> Some (id, attempts)
          | exception Scanf.Scan_failure _ -> None))

let in_memory () =
  { table = Hashtbl.create 16; rev_order = []; path = None; chan = None;
    skipped = [] }

let record t id attempts =
  if not (Hashtbl.mem t.table id) then begin
    Hashtbl.add t.table id attempts;
    t.rev_order <- id :: t.rev_order
  end

let load path =
  let t =
    { table = Hashtbl.create 16; rev_order = []; path = Some path;
      chan = None; skipped = [] }
  in
  if Sys.file_exists path then begin
    let lines =
      In_channel.with_open_text path (fun ic ->
          let rec go acc =
            match In_channel.input_line ic with
            | None -> List.rev acc
            | Some line -> go (line :: acc)
          in
          go [])
    in
    let last = List.length lines in
    List.iteri
      (fun i line ->
        let line_no = i + 1 in
        match Option.bind (Store.Record.unseal_line line) parse_line with
        | Some (id, attempts) -> record t id attempts
        | None ->
            (* never silently dropped — counted, surfaced, and
               classified: only the final line can be the torn tail a
               crash mid-append leaves; damage anywhere else is
               mid-file corruption *)
            let damage = if line_no = last then Torn_tail else Corrupt in
            t.skipped <- (line_no, damage) :: t.skipped)
      lines
  end;
  t

let path t = t.path

let skipped_detail t = List.rev t.skipped

let skipped_lines t = List.rev_map fst t.skipped

let skipped t = List.length t.skipped

let finalize t =
  match t.chan with
  | None -> ()
  | Some oc ->
      t.chan <- None;
      close_out_noerr oc

(* The cached append channel: opened on the first mark, flushed per
   line, closed by [finalize] / [reset].  One open/close syscall pair
   per journal instead of one per completed item. *)
let channel t path =
  match t.chan with
  | Some oc -> oc
  | None ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      t.chan <- Some oc;
      oc

let mark t ~id ~attempts =
  if not (Hashtbl.mem t.table id) then begin
    record t id attempts;
    match t.path with
    | None -> ()
    | Some path -> (
        let oc = channel t path in
        (* through the store's fault seam: an injected torn append or
           write error degrades to a lost journal line — the item is
           re-analyzed on resume, never lost *)
        match
          Store.Io.append_line oc ~path
            (Store.Record.seal_line (line_of ~id ~attempts))
        with
        | Ok () | Error _ -> ())
  end

let seen t id = Hashtbl.mem t.table id

let attempts t id = Hashtbl.find_opt t.table id

let ids t = List.rev t.rev_order

let count t = Hashtbl.length t.table

let reset t =
  Hashtbl.reset t.table;
  t.rev_order <- [];
  t.skipped <- [];
  finalize t;
  match t.path with
  | Some path when Sys.file_exists path -> Sys.remove path
  | _ -> ()
