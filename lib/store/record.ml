let current_version = 1

let magic = "DFSMSTORE"

type error = Torn | Checksum_mismatch | Stale_version

let error_to_string = function
  | Torn -> "torn"
  | Checksum_mismatch -> "checksum-mismatch"
  | Stale_version -> "stale-version"

let encode_with_version ~version payload =
  Printf.sprintf "%s %d %d %s\n%s" magic version (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

let encode payload = encode_with_version ~version:current_version payload

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let all_hex s =
  let ok = ref (s <> "") in
  String.iter (fun c -> if not (is_hex c) then ok := false) s;
  !ok

(* A record is torn when it is a strict prefix of some committed
   record — the only shapes an interrupted-but-otherwise-faithful
   write can leave.  Everything else structurally wrong is corruption:
   no honest prefix has a mangled magic, an over-long payload, or a
   digest that fails to verify at the declared length. *)
let decode s =
  match String.index_opt s '\n' with
  | None ->
      (* the header line itself never completed; if what is there is a
         prefix of a valid header shape, call it torn *)
      let shape_prefix =
        String.length s <= String.length magic + 80
        && (let m = min (String.length s) (String.length magic) in
            String.sub s 0 m = String.sub magic 0 m)
      in
      Error (if shape_prefix then Torn else Checksum_mismatch)
  | Some nl -> (
      let header = String.sub s 0 nl in
      let payload = String.sub s (nl + 1) (String.length s - nl - 1) in
      match String.split_on_char ' ' header with
      | [ m; version; len; digest ] when m = magic -> (
          match int_of_string_opt version, int_of_string_opt len with
          | Some v, _ when v <> current_version ->
              (* recognisably ours, recognisably another codec *)
              Error Stale_version
          | Some _, Some len when len >= 0 ->
              if not (all_hex digest && String.length digest = 32) then
                Error Checksum_mismatch
              else if String.length payload < len then Error Torn
              else if String.length payload > len then Error Checksum_mismatch
              else if Digest.to_hex (Digest.string payload) <> digest then
                Error Checksum_mismatch
              else Ok payload
          | _ -> Error Checksum_mismatch)
      | _ -> Error Checksum_mismatch)

(* ---- sealed lines -------------------------------------------------- *)

let seal_line line =
  Printf.sprintf "%s %s" (Digest.to_hex (Digest.string line)) line

let unseal_line l =
  let n = String.length l in
  if n >= 33 && l.[32] = ' ' then
    let content = String.sub l 33 (n - 33) in
    if Digest.to_hex (Digest.string content) = String.sub l 0 32 then
      Some content
    else None
  else None

module For_testing = struct
  let encode_with_version = encode_with_version
end
