let max_frame = 16 * 1024 * 1024

exception Timed_out

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

(* block until [fd] is readable or the absolute monotonic deadline
   passes; EINTR just shortens the wait and retries *)
let rec wait_readable fd deadline_ns =
  let remaining_ns = Int64.sub deadline_ns (Monotonic_clock.now ()) in
  if Int64.compare remaining_ns 0L <= 0 then raise Timed_out
  else
    let timeout = Int64.to_float remaining_ns /. 1e9 in
    match Unix.select [ fd ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        wait_readable fd deadline_ns
    | [], _, _ -> raise Timed_out
    | _ -> ()

(* returns bytes read, < len only at end-of-stream *)
let rec read_all ?deadline_ns fd bytes off len =
  if len = 0 then off
  else begin
    Option.iter (wait_readable fd) deadline_ns;
    let n =
      try Unix.read fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> -1
    in
    if n = 0 then off
    else if n < 0 then read_all ?deadline_ns fd bytes off len
    else read_all ?deadline_ns fd bytes (off + n) (len - n)
  end

let write fd payload =
  let len = String.length payload in
  if len > max_frame then
    invalid_arg (Printf.sprintf "Frame.write: payload %d > max %d" len max_frame);
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

let write_truncated fd payload =
  let len = String.length payload in
  if len > max_frame then
    invalid_arg
      (Printf.sprintf "Frame.write_truncated: payload %d > max %d" len
         max_frame);
  (* promise the whole payload in the header, deliver only half: the
     peer sees end-of-stream mid-frame once the sender closes *)
  let sent = len / 2 in
  let buf = Bytes.create (4 + sent) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 sent;
  write_all fd buf 0 (4 + sent)

module Out = struct
  (* bytes [4, len) are the payload; [0, 4) the header, set on send *)
  type t = { mutable bytes : Bytes.t; mutable len : int }

  let initial = 4096
  let create () = { bytes = Bytes.create initial; len = 4 }

  let clear t =
    (* a buffer grown for one outsized reply (a trace export) is not
       kept for the replies after it *)
    if Bytes.length t.bytes > 1 lsl 20 then t.bytes <- Bytes.create initial;
    t.len <- 4

  let grow t need =
    let cap = ref (2 * Bytes.length t.bytes) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit t.bytes 0 b 0 t.len;
    t.bytes <- b

  let add_char t c =
    if t.len >= Bytes.length t.bytes then grow t (t.len + 1);
    Bytes.unsafe_set t.bytes t.len c;
    t.len <- t.len + 1

  let add_substring t s off n =
    if t.len + n > Bytes.length t.bytes then grow t (t.len + n);
    Bytes.blit_string s off t.bytes t.len n;
    t.len <- t.len + n

  let add_string t s = add_substring t s 0 (String.length s)

  let header t what =
    let len = t.len - 4 in
    if len > max_frame then
      invalid_arg
        (Printf.sprintf "%s: payload %d > max %d" what len max_frame);
    Bytes.set_int32_be t.bytes 0 (Int32.of_int len);
    len

  let send fd t =
    let len = header t "Frame.Out.send" in
    write_all fd t.bytes 0 (4 + len)

  let send_truncated fd t =
    let len = header t "Frame.Out.send_truncated" in
    write_all fd t.bytes 0 (4 + (len / 2))
end

type error = Truncated | Oversize of int | Timeout

let error_message = function
  | Truncated -> "truncated frame: peer died mid-message"
  | Oversize len ->
      Printf.sprintf "frame length %d exceeds the %d-byte cap" len max_frame
  | Timeout -> "timed out waiting for a frame"

let read_r ?(max = max_frame) ?deadline_ns fd =
  match
    let hdr = Bytes.create 4 in
    let got = read_all ?deadline_ns fd hdr 0 4 in
    if got = 0 then Ok None
    else if got < 4 then Error Truncated
    else begin
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 0 || len > max then Error (Oversize len)
      else
        let payload = Bytes.create len in
        if read_all ?deadline_ns fd payload 0 len < len then Error Truncated
        else Ok (Some (Bytes.unsafe_to_string payload))
    end
  with
  | r -> r
  | exception Timed_out -> Error Timeout

let read ?max fd =
  match read_r ?max fd with
  | Ok r -> r
  | Error Truncated -> failwith "Frame.read: truncated frame"
  | Error (Oversize len) ->
      failwith (Printf.sprintf "Frame.read: length %d out of bounds" len)
  | Error Timeout -> failwith "Frame.read: timed out"
