let render ~header ~rows =
  let all = header :: rows in
  let cols =
    List.fold_left (fun acc row -> max acc (List.length row)) 0 all
  in
  let width i =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let pad s w =
    let n = String.length s in
    if n >= w then s else s ^ String.make (w - n) ' '
  in
  let line ch =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) ch) widths) ^ "+"
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i w ->
          let cell = match List.nth_opt row i with Some c -> c | None -> "" in
          " " ^ pad cell w ^ " ")
        widths
    in
    "|" ^ String.concat "|" cells ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line '-');
  Buffer.contents buf

let print ~header ~rows = print_string (render ~header ~rows)

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

let chart ~x_label ~y_label ~series =
  let width = 64 and height = 18 in
  let pts = List.concat_map snd series in
  match pts with
  | [] -> "(empty chart)\n"
  | (x0, y0) :: _ ->
    let fold f init = List.fold_left (fun acc (x, y) -> f acc x y) init pts in
    let xmin = fold (fun a x _ -> Float.min a x) x0 in
    let xmax = fold (fun a x _ -> Float.max a x) x0 in
    let ymin = Float.min 0.0 (fold (fun a _ y -> Float.min a y) y0) in
    let ymax = fold (fun a _ y -> Float.max a y) y0 in
    let xspan = if xmax -. xmin <= 0.0 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, data) ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        List.iter
          (fun (x, y) ->
            let cx =
              int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
            in
            let cy =
              height - 1
              - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
            in
            if cx >= 0 && cx < width && cy >= 0 && cy < height then
              grid.(cy).(cx) <- glyph)
          data)
      series;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "%s\n" y_label);
    Array.iteri
      (fun i row ->
        let yv = ymax -. (float_of_int i /. float_of_int (height - 1) *. yspan) in
        Buffer.add_string buf (Printf.sprintf "%8.1f |" yv);
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (String.make 10 ' ');
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%10s%.1f%s%.1f   (%s)\n" "" xmin
         (String.make (max 1 (width - 12)) ' ')
         xmax x_label);
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "    %c = %s\n" glyphs.(si mod Array.length glyphs) name))
      series;
    Buffer.contents buf

let bar_chart bars =
  let width = 50 in
  let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 bars in
  let vmax = if vmax <= 0.0 then 1.0 else vmax in
  let label_w =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 bars
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      let n = int_of_float (v /. vmax *. float_of_int width) in
      Buffer.add_string buf
        (Printf.sprintf "%-*s | %s %.1f\n" label_w name (String.make n '#') v))
    bars;
  Buffer.contents buf

let fmt_mbps v = Printf.sprintf "%.1f" v

let fmt_bytes n =
  if n < 1024 then Printf.sprintf "%dB" n
  else if n < 1024 * 1024 then
    let k = float_of_int n /. 1024.0 in
    if Float.is_integer k then Printf.sprintf "%.0fKB" k else Printf.sprintf "%.1fKB" k
  else
    let m = float_of_int n /. (1024.0 *. 1024.0) in
    if Float.is_integer m then Printf.sprintf "%.0fMB" m else Printf.sprintf "%.2fMB" m

let fmt_time_s s =
  if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s
