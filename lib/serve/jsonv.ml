include Mac_channel.Jsonv
