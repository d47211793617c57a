module O = Apps.Outcome

type case = {
  input_desc : string;
  spec_holds : bool;
  outcome : O.t;
  divergent : bool;
}

(* The specification of ReadPOSTData, straight from the paper:
   contentLen must be non-negative and the input must fit the
   allocated buffer. *)
let spec_of ~content_len ~body_len =
  content_len >= 0 && body_len <= Apps.Nullhttpd.usable_for ~content_len

let nullhttpd_sweep ?(seed = 42) ~config () =
  let rng = Vulndb.Prng.create ~seed in
  let content_lens = [ 0; 1; 64; 1024; 2000 ] in
  let body_lens cl =
    let buffer = Apps.Nullhttpd.usable_for ~content_len:cl in
    [ 0; cl; buffer; buffer + 1; buffer + 1024;
      Vulndb.Prng.below rng (2 * (buffer + 1)) ]
  in
  let run_case content_len body_len =
    let instance = Apps.Nullhttpd.setup ~config () in
    let body = String.make body_len 'a' in
    let outcome = Apps.Nullhttpd.handle_post instance ~content_len ~body in
    let spec_holds = spec_of ~content_len ~body_len in
    { input_desc = Printf.sprintf "contentLen=%d body=%dB" content_len body_len;
      spec_holds;
      outcome;
      divergent = (not spec_holds) && O.verdict outcome <> O.Blocked }
  in
  List.concat_map
    (fun cl ->
       List.map (run_case cl) (List.sort_uniq compare (body_lens cl)))
    content_lens

let rediscover_6255 ?(seed = 42) () =
  let cases = nullhttpd_sweep ~seed ~config:Apps.Nullhttpd.v0_5_1 () in
  match List.find_opt (fun c -> c.divergent) cases with
  | None -> None
  | Some c ->
      Some
        { Finding.title =
            "Null HTTPD ReadPOSTData Remote Heap Overflow (rediscovery of Bugtraq #6255)";
          app = "Null HTTPD 0.5.1";
          severity = Finding.Critical;
          summary =
            "With a correct, non-negative Content-Length, ReadPOSTData keeps calling \
             recv while full 1024-byte chunks arrive -- the loop condition uses || \
             where && was intended -- so a peer that simply sends more data than \
             declared overflows PostData on the heap.";
          witness = c.input_desc;
          observed = O.to_string c.outcome;
          violated_predicate = "length(input) <= size(PostData)";
          suggested_check =
            "while ((rc == 1024) && (x < contentLen)) -- and reject bodies longer \
             than contentLen" }

let confirm_fix ?(seed = 42) () =
  let cases = nullhttpd_sweep ~seed ~config:Apps.Nullhttpd.fully_fixed () in
  List.for_all (fun c -> not c.divergent) cases
