include Sjson.Json
